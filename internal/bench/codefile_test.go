package bench

import (
	"bytes"
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/workloads"
)

// BenchmarkCodefile prices the codefile codec on each paper workload's
// user file accelerated at Default: Read from a stream, Parse of bytes in
// hand (what a store hit and a served fetch do) and Marshal.
func BenchmarkCodefile(b *testing.B) {
	for _, name := range workloads.Names {
		w, err := workloads.Build(name, Iterations[name])
		if err != nil {
			b.Fatal(err)
		}
		u, _, err := core.AcceleratePair(w.User, w.Lib,
			core.Options{Level: codefile.LevelDefault}, core.Accelerate)
		if err != nil {
			b.Fatal(err)
		}
		data, _ := u.Marshal()
		for _, op := range []struct {
			name string
			run  func() error
		}{
			{"read", func() error { _, err := codefile.Read(bytes.NewReader(data)); return err }},
			{"parse", func() error { _, err := codefile.Parse(data); return err }},
			{"marshal", func() error { u.Marshal(); return nil }},
		} {
			b.Run(name+"/"+op.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					if err := op.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
