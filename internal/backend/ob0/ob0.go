package ob0

import "tnsr/internal/backend"

// BackendID is the codefile identity byte of the ob0 target.
const BackendID uint8 = 1

// B implements backend.Backend for the ob0 target. It is stateless — the
// simple timing model has no configuration.
type B struct{}

// Default is the registry instance.
var Default = &B{}

func init() { backend.Register(Default) }

func (b *B) ID() uint8                  { return BackendID }
func (b *B) Name() string               { return "ob0" }
func (b *B) Traits() backend.Traits     { return backend.Traits{DelaySlots: false} }
func (b *B) Disasm(pc, w uint32) string { return Disassemble(pc, w) }

// Millicode returns the assembled ob0 millicode and its entry labels.
func (b *B) Millicode() (code []uint32, labels map[string]uint32) {
	return milli.Build()
}

// Load decodes a code image once for the ob0 simulator.
func (b *B) Load(code *backend.CodeImage) backend.Program { return NewProgram(code) }
