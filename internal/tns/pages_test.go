package tns

import "testing"

func TestPageSetMarks(t *testing.T) {
	var p PageSet
	p.MarkWord(0)
	p.MarkWord(PageWords - 1) // same page
	p.MarkWord(PageWords)     // next page
	p.MarkWord(DataWords - 1) // last page
	if !p.MarkByte(2 * 5 * PageWords) {
		t.Error("MarkByte inside the data space reported false")
	}
	if p.MarkByte(2*DataWords + 7) { // beyond the data space: ignored
		t.Error("MarkByte beyond the data space reported true")
	}
	var got []int
	p.ForEach(func(pg int) { got = append(got, pg) })
	want := []int{0, 1, 5, Pages - 1}
	if len(got) != len(want) || p.Len() != len(want) {
		t.Fatalf("pages %v (len %d), want %v", got, p.Len(), want)
	}
	for i := range want {
		if got[i] != want[i] || !p.Has(want[i]) {
			t.Fatalf("pages %v, want %v", got, want)
		}
	}
	if p.Has(2) {
		t.Error("page 2 marked but never written")
	}
}

func TestPageSetMarkWords(t *testing.T) {
	cases := []struct {
		a, n  int
		pages []int
	}{
		{0, 0, nil},
		{130, 0, nil},
		{0, 1, []int{0}},
		{127, 2, []int{0, 1}},
		{128, 128, []int{1}},
		{100, 300, []int{0, 1, 2, 3}},
		{DataWords - 1, 10, []int{Pages - 1}}, // clipped at the end
	}
	for _, c := range cases {
		var p PageSet
		p.MarkWords(c.a, c.n)
		var got []int
		p.ForEach(func(pg int) { got = append(got, pg) })
		if len(got) != len(c.pages) {
			t.Errorf("MarkWords(%d, %d) = %v, want %v", c.a, c.n, got, c.pages)
			continue
		}
		for i := range got {
			if got[i] != c.pages[i] {
				t.Errorf("MarkWords(%d, %d) = %v, want %v", c.a, c.n, got, c.pages)
				break
			}
		}
	}
}

func TestPageSetUnionAll(t *testing.T) {
	var p, q PageSet
	p.MarkWord(3 * PageWords)
	q.MarkWord(300 * PageWords)
	p.Union(&q)
	if p.Len() != 2 || !p.Has(3) || !p.Has(300) {
		t.Errorf("union has %d pages, want pages 3 and 300", p.Len())
	}
	p.MarkAll()
	if p.Len() != Pages {
		t.Errorf("MarkAll: %d pages, want %d", p.Len(), Pages)
	}
}
