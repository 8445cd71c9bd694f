package crackdb_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
)

// docFiles returns README.md plus every markdown file under docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	more, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	return append(files, more...)
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocLinks is the link checker CI runs over docs/*.md and the
// README: every relative markdown link must point at an existing file
// (external links are out of scope — CI must not depend on the network).
func TestDocLinks(t *testing.T) {
	for _, file := range docFiles(t) {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#") // drop in-file anchors
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (%v)", file, m[1], err)
			}
		}
	}
}

// TestPaperMapCoversAlgorithms pins the acceptance criterion of
// docs/PAPER_MAP.md: every algorithm spec the figure harness draws — the
// served engine family plus the sorted baseline and the hybrids — appears
// in the map (inside a table row, which always carries a code reference
// in its Code column).
func TestPaperMapCoversAlgorithms(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("docs", "PAPER_MAP.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, spec := range bench.Algorithms() {
		if !strings.Contains(text, "`"+spec+"`") {
			t.Errorf("docs/PAPER_MAP.md does not mention algorithm spec %q", spec)
		}
	}
}

// TestPaperMapCodeReferences keeps the map's file references real: every
// `internal/...` or `cmd/...` path mentioned in the docs must exist in
// the tree.
func TestPaperMapCodeReferences(t *testing.T) {
	pathRef := regexp.MustCompile("`((?:internal|cmd|docs|bench)/[A-Za-z0-9_./-]+)`")
	for _, file := range docFiles(t) {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range pathRef.FindAllStringSubmatch(string(body), -1) {
			if _, err := os.Stat(m[1]); err != nil {
				t.Errorf("%s: references %q, which does not exist", file, m[1])
			}
		}
	}
}

// goSources concatenates every .go file in the tree (tests included) —
// the haystack the drift checks below grep for names in.
func goSources(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			body, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			sb.Write(body)
			sb.WriteByte('\n')
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

var (
	metricName  = regexp.MustCompile(`crack(?:server|cluster)_[a-z_]+`)
	inlineCode  = regexp.MustCompile("`([^`\n]+)`")
	endpointRef = regexp.MustCompile(`/v1/[a-z/]+|/healthz|/debug/metrics`)
	flagRef     = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
)

// TestOperationsDocDrift pins docs/OPERATIONS.md to the code: every
// metric name, endpoint path and CLI flag the runbook mentions must
// still exist — in the metric renderers, the route tables and the flag
// registrations respectively — so the operator reference cannot rot
// silently when code changes.
func TestOperationsDocDrift(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(body)
	src := goSources(t)

	for _, m := range dedup(metricName.FindAllString(doc, -1)) {
		if !strings.Contains(src, m) {
			t.Errorf("docs/OPERATIONS.md names metric %q, which no code exports", m)
		}
	}

	// Endpoints and flags live in inline code spans (fenced blocks are
	// shell transcripts whose tool flags — curl's -X — are out of scope).
	var endpoints, flags []string
	for _, span := range inlineCode.FindAllStringSubmatch(doc, -1) {
		endpoints = append(endpoints, endpointRef.FindAllString(span[1], -1)...)
		for _, f := range flagRef.FindAllStringSubmatch(span[1], -1) {
			flags = append(flags, f[1])
		}
	}
	for _, ep := range dedup(endpoints) {
		if !strings.Contains(src, `"`+ep+`"`) && !strings.Contains(src, ` `+ep+`"`) {
			t.Errorf("docs/OPERATIONS.md names endpoint %q, which no code routes", ep)
		}
	}
	flagDecl := regexp.MustCompile(`flag\.[A-Za-z0-9]+\("([a-z][a-z0-9-]*)"`)
	declared := map[string]bool{}
	for _, m := range flagDecl.FindAllStringSubmatch(src, -1) {
		declared[m[1]] = true
	}
	for _, f := range dedup(flags) {
		if !declared[f] {
			t.Errorf("docs/OPERATIONS.md names flag -%s, which no command registers", f)
		}
	}
}

func dedup(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
