package xlate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"tnsr/internal/backend"
	"tnsr/internal/backend/mips"
	_ "tnsr/internal/backend/ob0" // register every target a submit may name
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/pgo"
)

// writeCodefile serializes f to the same bytes a .tns file holds.
func writeCodefile(f *codefile.File) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("xlate: serialize codefile: %w", err)
	}
	return buf.Bytes(), nil
}

// Wire schemas. The submit request carries the codefile plus every
// output-affecting translation knob BY NAME — never a serialized Options
// struct — so client and server can disagree about Go versions, worker
// counts, or scheduler internals and still compute the same TransKey and
// the same bytes. Knobs that change wall-clock only (Workers, Sched, Obs)
// deliberately have no wire representation.
const (
	SubmitSchema = "tnsr/xlate-submit/v1"
	StatusSchema = "tnsr/xlate-status/v1"
)

// SubmitRequest is the POST /v1/xlate body.
type SubmitRequest struct {
	Schema string `json:"schema"`

	// Level is "stmtdebug", "default" or "fast" ("" = default).
	Level string `json:"level,omitempty"`

	// Backend names the RISC target (backend.ByName; "" = mips).
	// EncodeRequest leaves it empty for mips, so a mips submit is the same
	// body a server without this field accepts; such a server serves any
	// other target a mips section, which Client.graft refuses.
	Backend string `json:"backend,omitempty"`

	// Space is the code-space bit (0 user, 1 library). Space 1 translates
	// for the library's code base (millicode.CodeBase), exactly as axcel
	// -space 1 does.
	Space uint8 `json:"space,omitempty"`

	IgnoreSummaries    bool `json:"ignore_summaries,omitempty"`
	DisableFlagElision bool `json:"disable_flag_elision,omitempty"`
	DisableCSE         bool `json:"disable_cse,omitempty"`
	DisableSchedule    bool `json:"disable_schedule,omitempty"`

	// LibSummaries maps PEP index (decimal string: JSON objects key by
	// string) to result words.
	LibSummaries map[string]int8 `json:"lib_summaries,omitempty"`

	// HintRet and HintXCAL are the Options.Hints maps; HintXCAL keys are
	// decimal code addresses.
	HintRet  map[string]int8 `json:"hint_ret,omitempty"`
	HintXCAL map[string]int8 `json:"hint_xcal,omitempty"`

	// SelectProcs restricts translation to the named procedures.
	SelectProcs []string `json:"select_procs,omitempty"`

	// Profile is an inline tnsr/pgo-profile/v1 document; ProfileCover as in
	// Options.
	Profile      json.RawMessage `json:"profile,omitempty"`
	ProfileCover float64         `json:"profile_cover,omitempty"`

	// Codefile is the raw .tns bytes (base64 in JSON).
	Codefile []byte `json:"codefile"`
}

// Status is the JSON answer to a submit and to a GET that is not yet
// serveable: the translation's content-addressed key and where it stands.
type Status struct {
	Schema string `json:"schema"`
	Key    string `json:"key"`
	// State is "queued", "running", "done" or "failed".
	State string `json:"state"`
	// Cached reports a submit that was answered entirely from the store.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// EncodeRequest converts local translation options to the wire form.
// Options with no wire representation (Workers, Sched, Obs, CodeBase) are
// dropped: the first three don't affect output, and CodeBase is derived
// deterministically on both sides (from the Space bit), so the server's
// TransKey matches the client's.
func EncodeRequest(f *codefile.File, opts core.Options) (*SubmitRequest, error) {
	req := &SubmitRequest{
		Schema:             SubmitSchema,
		Space:              opts.Space,
		IgnoreSummaries:    opts.IgnoreSummaries,
		DisableFlagElision: opts.DisableFlagElision,
		DisableCSE:         opts.DisableCSE,
		DisableSchedule:    opts.DisableSchedule,
		ProfileCover:       opts.ProfileCover,
	}
	if opts.Backend != nil && opts.Backend.ID() != mips.Default.ID() {
		req.Backend = opts.Backend.Name()
	}
	switch opts.Level {
	case codefile.LevelNone, codefile.LevelDefault:
		req.Level = "default"
	case codefile.LevelStmtDebug:
		req.Level = "stmtdebug"
	case codefile.LevelFast:
		req.Level = "fast"
	default:
		return nil, fmt.Errorf("xlate: unencodable level %v", opts.Level)
	}
	if len(opts.LibSummaries) > 0 {
		req.LibSummaries = map[string]int8{}
		for k, v := range opts.LibSummaries {
			req.LibSummaries[strconv.Itoa(int(k))] = v
		}
	}
	if len(opts.Hints.ReturnValSize) > 0 {
		req.HintRet = map[string]int8{}
		for k, v := range opts.Hints.ReturnValSize {
			req.HintRet[k] = v
		}
	}
	if len(opts.Hints.XCALResultSize) > 0 {
		req.HintXCAL = map[string]int8{}
		for k, v := range opts.Hints.XCALResultSize {
			req.HintXCAL[strconv.Itoa(int(k))] = v
		}
	}
	for name, on := range opts.SelectProcs {
		if on {
			req.SelectProcs = append(req.SelectProcs, name)
		}
	}
	sort.Strings(req.SelectProcs)
	if opts.Profile != nil {
		data, err := opts.Profile.JSON()
		if err != nil {
			return nil, fmt.Errorf("xlate: encode profile: %w", err)
		}
		req.Profile = data
	}
	var buf []byte
	{
		var err error
		buf, err = writeCodefile(f)
		if err != nil {
			return nil, err
		}
	}
	req.Codefile = buf
	return req, nil
}

// DecodeOptions reconstructs the translation options a submit asks for.
// The returned options carry no Sched/Workers — the server attaches its
// shared queue — and leave CodeBase to be derived from Space.
func (r *SubmitRequest) DecodeOptions() (core.Options, error) {
	var opts core.Options
	switch r.Level {
	case "", "default":
		opts.Level = codefile.LevelDefault
	case "stmtdebug", "statementdebug":
		opts.Level = codefile.LevelStmtDebug
	case "fast":
		opts.Level = codefile.LevelFast
	default:
		return opts, fmt.Errorf("unknown level %q", r.Level)
	}
	if r.Backend != "" {
		b, ok := backend.ByName(r.Backend)
		if !ok {
			return opts, fmt.Errorf("unknown backend %q", r.Backend)
		}
		opts.Backend = b
	}
	if r.Space > 1 {
		return opts, fmt.Errorf("space must be 0 or 1, got %d", r.Space)
	}
	opts.Space = r.Space
	opts.IgnoreSummaries = r.IgnoreSummaries
	opts.DisableFlagElision = r.DisableFlagElision
	opts.DisableCSE = r.DisableCSE
	opts.DisableSchedule = r.DisableSchedule
	opts.ProfileCover = r.ProfileCover
	if len(r.LibSummaries) > 0 {
		opts.LibSummaries = map[uint16]int8{}
		for k, v := range r.LibSummaries {
			n, err := strconv.ParseUint(k, 10, 16)
			if err != nil {
				return opts, fmt.Errorf("bad lib_summaries key %q", k)
			}
			opts.LibSummaries[uint16(n)] = v
		}
	}
	if len(r.HintRet) > 0 {
		opts.Hints.ReturnValSize = map[string]int8{}
		for k, v := range r.HintRet {
			opts.Hints.ReturnValSize[k] = v
		}
	}
	if len(r.HintXCAL) > 0 {
		opts.Hints.XCALResultSize = map[uint16]int8{}
		for k, v := range r.HintXCAL {
			n, err := strconv.ParseUint(k, 10, 16)
			if err != nil {
				return opts, fmt.Errorf("bad hint_xcal key %q", k)
			}
			opts.Hints.XCALResultSize[uint16(n)] = v
		}
	}
	if len(r.SelectProcs) > 0 {
		opts.SelectProcs = map[string]bool{}
		for _, name := range r.SelectProcs {
			opts.SelectProcs[name] = true
		}
	}
	if len(r.Profile) > 0 {
		p, err := pgo.ParseProfile(r.Profile)
		if err != nil {
			return opts, fmt.Errorf("bad profile: %w", err)
		}
		opts.Profile = p
	}
	return opts, nil
}
