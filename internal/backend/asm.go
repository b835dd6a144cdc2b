package backend

import (
	"fmt"
	"strconv"
	"strings"
)

// An Encoder assembles one instruction line of a target's assembly
// language: op is its lower-cased mnemonic. It reads the line's operands
// through a's operand methods, naming the Field each immediate fills, and
// appends the line's words with Put.
type Encoder func(a *Asm, op string) error

// A Field is the range of values an operand's instruction field holds,
// [Lo, Hi]. The operand methods check it, so a value that does not fit is
// the line's error rather than a field truncated in the word.
type Field struct{ Lo, Hi int64 }

// The fields of both targets' encodings.
var (
	Signed16   = Field{-1 << 15, 1<<15 - 1} // sign-extended immediates, memory offsets (Mem), branch displacements (Disp)
	Unsigned16 = Field{0, 1<<16 - 1}        // zero-extended immediates and upper halves
	Shift5     = Field{0, 31}               // shift amounts
	Code20     = Field{0, 1<<20 - 1}        // BREAK and SYSCALL codes
	Target26   = Field{0, 1<<26 - 1}        // absolute jump targets (word indexes)
	Word32     = Field{-1 << 31, 1<<32 - 1} // a whole word, read signed or unsigned (li, .word)
)

// Asm is the target-independent assembler front end every target's
// assembler shares; [Assemble] drives it with the target's [Encoder].
//
// An operand method that cannot parse its operand records the error and
// returns zero; the encoder carries on, and Assemble reports the first
// such error for the line. So an encoder reads each operand in one
// expression, and a bad or missing operand is an error, never a panic.
type Asm struct {
	labels map[string]uint32
	extern map[string]uint32
	out    []uint32
	pc     uint32
	emit   bool
	ops    []string
	err    error
}

// Assemble translates assembly text into machine words with enc, a target's
// mnemonic encoder. It exists for the hand-coded millicode routines and for
// tests. The syntax is the same on every target:
//
//	label:                     define a label (word index)
//	op operands  ; comment     one instruction, operands comma-separated
//	.word n                    a raw data word
//
// Operands use the register names of RegName ($z, $r0..$r7, $db, $l, $s,
// $cc, $k, $v, $env, $t0..$t13, $mt, $ra, or $N numeric). Immediates are
// decimal or 0x hex, a label, or a name in extern (runtime table
// addresses). Memory operands are "off(base)". Branch and jump targets are
// labels or absolute word indexes.
//
// A malformed line is an error naming the line: a missing or bad operand,
// an operand that does not fit its field, an unknown mnemonic, or a field
// the target's word encoders reject by panicking.
func Assemble(src string, extern map[string]uint32, enc Encoder) ([]uint32, map[string]uint32, error) {
	a := &Asm{labels: map[string]uint32{}, extern: extern}
	// Pass 1: measure, collect labels.
	if err := a.scan(src, enc, false); err != nil {
		return nil, nil, err
	}
	a.out = make([]uint32, 0, a.pc)
	a.pc = 0
	// Pass 2: emit.
	if err := a.scan(src, enc, true); err != nil {
		return nil, nil, err
	}
	return a.out, a.labels, nil
}

func (a *Asm) scan(src string, enc Encoder, emit bool) error {
	a.emit = emit
	for ln, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 || strings.ContainsAny(line[:i], " \t(") {
				break
			}
			if !emit {
				if _, dup := a.labels[line[:i]]; dup {
					return fmt.Errorf("line %d: duplicate label %q", ln+1, line[:i])
				}
				a.labels[line[:i]] = a.pc
			}
			line = strings.TrimSpace(line[i+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}
		if err := a.instr(line, enc); err != nil {
			return fmt.Errorf("line %d: %w", ln+1, err)
		}
	}
	return nil
}

// instr assembles one instruction line. The word encoders panic on
// out-of-range fields (their callers inside the lowerers guarantee ranges),
// so a panic here is the line's error, not a crash.
func (a *Asm) instr(line string, enc Encoder) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%q: %v", line, p)
		}
	}()
	fields := strings.Fields(line)
	op := strings.ToLower(fields[0])
	a.ops = a.ops[:0]
	for _, p := range strings.Split(line[len(fields[0]):], ",") {
		if p = strings.TrimSpace(p); p != "" {
			a.ops = append(a.ops, p)
		}
	}
	a.err = nil
	if op == ".word" {
		a.Put(uint32(a.Imm(0, Word32)))
	} else {
		err = enc(a, op)
	}
	if a.err != nil {
		return a.err
	}
	return err
}

// Put appends one word to the output (in pass 1 it only counts it).
func (a *Asm) Put(w uint32) {
	if a.emit {
		a.out = append(a.out, w)
	}
	a.pc++
}

// NumOps returns the number of operands on the line.
func (a *Asm) NumOps() int { return len(a.ops) }

func (a *Asm) operand(i int) (string, bool) {
	if i >= len(a.ops) {
		a.fail(fmt.Errorf("missing operand %d", i+1))
		return "", false
	}
	return a.ops[i], true
}

func (a *Asm) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// fit returns v if it lies in f; otherwise it records the line's error
// and returns 0. what names the operand.
func (a *Asm) fit(v int64, f Field, what string) int64 {
	if v < f.Lo || v > f.Hi {
		a.fail(fmt.Errorf("%s %d out of range [%d, %d]", what, v, f.Lo, f.Hi))
		return 0
	}
	return v
}

var regNames = func() map[string]uint8 {
	m := map[string]uint8{}
	for r := uint8(0); r < 32; r++ {
		m[RegName(r)] = r
		m[fmt.Sprintf("$%d", r)] = r
	}
	return m
}()

// IsReg reports whether operand i is present and names a register.
func (a *Asm) IsReg(i int) bool {
	if i >= len(a.ops) {
		return false
	}
	_, ok := regNames[strings.ToLower(a.ops[i])]
	return ok
}

// Reg parses operand i as a register.
func (a *Asm) Reg(i int) uint8 {
	s, ok := a.operand(i)
	if !ok {
		return 0
	}
	return a.reg(s)
}

func (a *Asm) reg(s string) uint8 {
	r, ok := regNames[strings.ToLower(strings.TrimSpace(s))]
	if !ok {
		a.fail(fmt.Errorf("bad register %q", s))
	}
	return r
}

// Imm parses operand i as an immediate that must fit f.
func (a *Asm) Imm(i int, f Field) int64 {
	s, ok := a.operand(i)
	if !ok {
		return 0
	}
	return a.fit(a.imm(s), f, "immediate")
}

func (a *Asm) imm(s string) int64 {
	s = strings.TrimSpace(s)
	if v, ok := a.extern[s]; ok {
		return int64(v)
	}
	if l, ok := a.labels[s]; ok {
		return int64(l)
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg, s = true, s[1:]
	}
	var v int64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseInt(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseInt(s, 10, 64)
	}
	if err != nil {
		if a.emit { // pass 1 allows forward label references
			a.fail(fmt.Errorf("bad immediate %q", s))
		}
		return 0
	}
	if neg {
		v = -v
	}
	return v
}

// Mem parses operand i as a memory operand "off(base)"; off is optional,
// may be a named constant, and must fit Signed16.
func (a *Asm) Mem(i int) (off int32, base uint8) {
	s, ok := a.operand(i)
	if !ok {
		return 0, 0
	}
	l := strings.IndexByte(s, '(')
	r := strings.IndexByte(s, ')')
	if l < 0 || r < l {
		a.fail(fmt.Errorf("bad memory operand %q", s))
		return 0, 0
	}
	if l > 0 {
		off = int32(a.fit(a.imm(s[:l]), Signed16, "offset"))
	}
	return off, a.reg(s[l+1 : r])
}

// Disp parses operand i as a branch target, a code word index, and
// returns its displacement in words from the instruction after the
// branch, which must fit Signed16 (0 in pass 1, where the target may be a
// label not yet defined).
func (a *Asm) Disp(i int) int32 {
	s, ok := a.operand(i)
	if !ok || !a.emit {
		return 0
	}
	t := a.fit(a.imm(s), Target26, "branch target")
	return int32(a.fit(t-int64(a.pc)-1, Signed16, "branch displacement"))
}
