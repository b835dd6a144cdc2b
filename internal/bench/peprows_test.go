package bench

import (
	"fmt"
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/pgo"
	"tnsr/internal/tns"
	"tnsr/internal/xrun"
)

// pepRows is the PEP table size BenchmarkPEPRows runs at.
const pepRows = 1 << 16

// manyProcs returns a codefile of rows PEP rows that all enter the one word
// of its code, an EXIT: the PEP table is nearly all of the file (775 KB at
// pepRows), and the rule that splits code among procedures has one word
// and rows owners to settle.
func manyProcs(rows int) *codefile.File {
	f := &codefile.File{Name: "peprows", Code: []uint16{tns.EncEXIT(0)},
		Procs: make([]codefile.Proc, rows)}
	for i := range f.Procs {
		f.Procs[i] = codefile.Proc{Name: fmt.Sprint("p", i)}
	}
	return f
}

// oneWordProcs returns a codefile of rows one-word procedures, each an
// EXIT of its own: every row is a fragment of its own, the shape in which
// a translation through fragments has the most of them to merge.
func oneWordProcs(rows int) *codefile.File {
	f := &codefile.File{Name: "fragments", Code: make([]uint16, rows),
		Procs: make([]codefile.Proc, rows)}
	for i := range f.Procs {
		f.Code[i] = tns.EncEXIT(0)
		f.Procs[i] = codefile.Proc{Name: fmt.Sprint("p", i), Entry: uint16(i)}
	}
	return f
}

// BenchmarkPEPRows prices what the PEP row count of a submitted codefile
// costs the stages that split its code words among procedures: a
// translation (core.Accelerate, one worker), the analysis alone
// (core.Analyze), attaching a PGO capture (pgo.Capture.AttachFiles) and
// building a run image of the translation (xrun.NewImage, which builds the
// obs attribution tables). The fragments leg translates as many one-word
// procedures with two workers, each procedure its own fragment, the way
// tnsxlated's queue translates every codefile. Each should grow linearly
// with the rows.
func BenchmarkPEPRows(b *testing.B) {
	f := manyProcs(pepRows)
	opts := core.Options{Workers: 1}
	b.Run("accelerate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := core.Accelerate(f.Pristine(), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fragments", func(b *testing.B) {
		frags := oneWordProcs(pepRows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := core.Accelerate(frags.Pristine(), core.Options{Workers: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("analyze", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Analyze(f, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("attach", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pgo.NewCapture().AttachFiles(f, nil)
		}
	})
	b.Run("newimage", func(b *testing.B) {
		acc := f.Pristine()
		if err := core.Accelerate(acc, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := xrun.NewImage(acc, nil, CycloneRConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
