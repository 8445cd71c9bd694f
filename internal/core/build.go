package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dberr"
)

// Build constructs an Index by algorithm name. Recognized specs:
//
//	scan, sort, crack                     — baselines and original cracking
//	ddc, ddr, dd1c, dd1r                  — data-driven stochastic cracking
//	mdd1r                                 — stochastic cracking with materialization
//	pmdd1r-<pct>                          — progressive, e.g. pmdd1r-10 (P10%)
//	scrack                                — alias for pmdd1r with opt.SwapPct
//	fiftyfifty, flipcoin                  — per-query selective strategies
//	every-<x>                             — stochastic every x-th query
//	scrackmon-<x>                         — per-piece monitoring threshold x
//	sizeselective                         — stochastic only above CrackSize
//	r<x>crack                             — naive: random query every x queries
//
// Numeric suffixes override the corresponding Options field for this index
// only. The values slice is owned by the returned index.
func Build(values []int64, spec string, opt Options) (Index, error) {
	spec = strings.ToLower(strings.TrimSpace(spec))
	switch spec {
	case "scan":
		return NewScan(values, opt), nil
	case "sort":
		return NewSort(values, opt), nil
	case "crack":
		return NewCrack(values, opt), nil
	case "ddc":
		return NewDDC(values, opt), nil
	case "ddr":
		return NewDDR(values, opt), nil
	case "dd1c":
		return NewDD1C(values, opt), nil
	case "dd1r":
		return NewDD1R(values, opt), nil
	case "mdd1r":
		return NewMDD1R(values, opt), nil
	case "scrack", "pmdd1r":
		return NewPMDD1R(values, opt), nil
	case "fiftyfifty":
		return NewFiftyFifty(values, opt), nil
	case "flipcoin":
		return NewFlipCoin(values, opt), nil
	case "sizeselective":
		return NewSizeSelective(values, opt), nil
	case "autotune":
		return NewAutoTune(values, opt), nil
	}
	if pct, ok := suffixInt(spec, "pmdd1r-"); ok {
		if pct < 1 || pct > 100 {
			return nil, fmt.Errorf("core: pmdd1r swap percentage out of range: %q", spec)
		}
		opt.SwapPct = pct
		return NewPMDD1R(values, opt), nil
	}
	if x, ok := suffixInt(spec, "every-"); ok {
		if x < 1 {
			return nil, fmt.Errorf("core: every-X period must be >= 1: %q", spec)
		}
		return NewEveryX(values, x, opt), nil
	}
	if x, ok := suffixInt(spec, "scrackmon-"); ok {
		if x < 1 {
			return nil, fmt.Errorf("core: scrackmon-X threshold must be >= 1: %q", spec)
		}
		return NewScrackMon(values, x, opt), nil
	}
	if strings.HasPrefix(spec, "r") && strings.HasSuffix(spec, "crack") {
		num := strings.TrimSuffix(strings.TrimPrefix(spec, "r"), "crack")
		if x, err := strconv.Atoi(num); err == nil && x >= 1 {
			return NewRCrack(values, x, 10, opt), nil
		}
		return nil, fmt.Errorf("core: malformed rXcrack spec: %q", spec)
	}
	return nil, fmt.Errorf("core: %w %q", dberr.ErrUnknownAlgorithm, spec)
}

func suffixInt(spec, prefix string) (int, bool) {
	if !strings.HasPrefix(spec, prefix) {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(spec, prefix))
	if err != nil {
		return 0, false
	}
	return n, true
}

// Algorithms lists the engine-backed algorithm specs (with representative
// parameters for the parameterized families): every spec Build takes
// except "sort", the figure harness's full-index baseline, which has no
// engine to crack, update or snapshot.
func Algorithms() []string {
	return []string{
		"scan", "crack",
		"ddc", "ddr", "dd1c", "dd1r",
		"mdd1r", "pmdd1r-1", "pmdd1r-10", "pmdd1r-50", "pmdd1r-100",
		"fiftyfifty", "flipcoin", "every-4", "scrackmon-10", "sizeselective",
		"autotune",
		"r1crack", "r2crack", "r4crack", "r8crack",
	}
}
