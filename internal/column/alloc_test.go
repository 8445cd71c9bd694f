package column

import "testing"

// TestAllocExact checks Alloc returns exactly n zeroed values, small and
// huge-page sized alike: a column costs its rows and nothing more.
func TestAllocExact(t *testing.T) {
	for _, n := range []int{0, 1, 1000, 1 << 20, 1<<20 + 3} {
		vals := Alloc(n)
		if len(vals) != n || cap(vals) != n {
			t.Fatalf("Alloc(%d): len %d, cap %d", n, len(vals), cap(vals))
		}
		for i, v := range vals {
			if v != 0 {
				t.Fatalf("Alloc(%d)[%d] = %d, want 0", n, i, v)
			}
		}
	}
}
