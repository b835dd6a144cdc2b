package main

import (
	"maps"
	"strings"
	"testing"
)

func TestParseIters(t *testing.T) {
	base := map[string]int{"dhry16": 120, "et1": 30}
	cases := []struct {
		spec    string
		want    map[string]int // nil: an error naming wantErr
		wantErr string
	}{
		{spec: "", want: base},
		{spec: "dhry16=500", want: map[string]int{"dhry16": 500, "et1": 30}},
		{spec: "dhry16=1,et1=2,tal=3", want: map[string]int{"dhry16": 1, "et1": 2, "tal": 3}},
		{spec: "dhry16=0", wantErr: "below 1"},
		{spec: "dhry16=-1", wantErr: "below 1"},
		{spec: "dhry6=3", wantErr: `unknown workload "dhry6"`},
		{spec: "=3", wantErr: `unknown workload ""`},
		{spec: "dhry16", wantErr: "want name=count"},
		{spec: "dhry16=x", wantErr: "invalid syntax"},
		{spec: "dhry16=5,", wantErr: "want name=count"},
	}
	for _, tc := range cases {
		got, err := parseIters(tc.spec, base)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseIters(%q) = %v, %v; want an error containing %q",
					tc.spec, got, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !maps.Equal(got, tc.want) {
			t.Errorf("parseIters(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
	if base["dhry16"] != 120 || len(base) != 2 {
		t.Errorf("parseIters wrote its base: %v", base)
	}
}
