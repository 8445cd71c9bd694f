package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestPaperDataComplete(t *testing.T) {
	if len(PaperFig17) != 15 {
		t.Fatalf("paper fig17 rows = %d, want 15", len(PaperFig17))
	}
	for wl, row := range PaperFig17 {
		for i, v := range row {
			if v <= 0 {
				t.Fatalf("fig17 %s col %d = %v", wl, i, v)
			}
		}
	}
	covered := map[string]bool{}
	for _, wl := range PaperPathologicalWorkloads {
		covered[wl] = true
		// On pathological workloads the paper's crack column must dominate
		// its scrack column by a wide margin.
		if p := PaperFig17[wl]; p[0] < p[1]*3 {
			t.Fatalf("%s listed pathological but paper ratio is %.1f", wl, p[0]/p[1])
		}
	}
	for _, wl := range PaperCrackFriendlyWorkloads {
		covered[wl] = true
	}
	covered["skyserver"] = true
	covered["seqzoomin"] = true
	for wl := range PaperFig17 {
		if !covered[wl] {
			t.Fatalf("workload %s not categorized", wl)
		}
	}
	if len(PaperFig18) != 6 || len(PaperFig19) != 6 || len(PaperFig8) != 5 {
		t.Fatal("paper sweep tables incomplete")
	}
}

func TestReportRunsAtSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("report run is moderately expensive")
	}
	var buf bytes.Buffer
	r := NewReport(Config{N: 300_000, Q: 600, S: 10, Seed: 7})
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Fig. 8", "Fig. 2 / Fig. 9", "Fig. 17", "Fig. 18 / Fig. 19", "Summary",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing section %q", want)
		}
	}
	passed, total := r.Checks()
	if total < 20 {
		t.Fatalf("only %d checks ran", total)
	}
	// At 300k/600 scale the major shape results already hold; allow a few
	// borderline factor checks to miss. Every check but Fig. 8's two
	// counts tuples touched, so its outcome is the same on every run of a
	// seed.
	if passed*4 < total*3 {
		t.Fatalf("only %d/%d shape checks passed at small scale:\n%s", passed, total, out)
	}
}
