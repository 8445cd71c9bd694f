package main

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

// TestMain lets the test binary stand in for crackserver: with
// CRACKSERVER_CHILD set it runs main on its arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("CRACKSERVER_CHILD") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// child is one crackserver process started from the test binary.
type child struct {
	cmd *exec.Cmd
	log bytes.Buffer
	url string
}

// startServer runs crackserver with args plus a random port and waits
// until it serves.
func startServer(t *testing.T, args ...string) *child {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	c := &child{}
	c.cmd = exec.Command(os.Args[0], append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile)...)
	c.cmd.Env = append(os.Environ(), "CRACKSERVER_CHILD=1")
	c.cmd.Stderr = &c.log
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.cmd.Process.Kill(); _ = c.cmd.Wait() })
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			c.url = "http://" + strings.TrimSpace(string(addr))
			return c
		}
	}
	t.Fatalf("crackserver never wrote its address:\n%s", c.log.String())
	return nil
}

// stop sends SIGTERM and waits for the graceful drain to finish.
func (c *child) stop(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Wait(); err != nil {
		t.Fatalf("crackserver exited with %v:\n%s", err, c.log.String())
	}
}

// TestAckedWritesSurviveGracefulRestart: a write acknowledged over HTTP
// must be served again after a SIGTERM drain and a warm restart from the
// same snapshot file or store, with no periodic save in between — in
// single-table and in catalog mode.
func TestAckedWritesSurviveGracefulRestart(t *testing.T) {
	const extra = 5000 // outside the permutation [0, 1000): only the insert holds it
	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		args  []string
		table string
	}{
		{"snapshot-file", []string{"-n", "1000", "-snapshot", filepath.Join(dir, "db.crks")}, ""},
		{"snapshot-store", []string{"-n", "1000", "-snapshot-store", filepath.Join(dir, "store")}, ""},
		{"catalog", []string{"-tables", "t:1000", "-snapshot-store", filepath.Join(dir, "catalog")}, "t"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			client := func(c *child) *server.Client {
				var opts []server.ClientOption
				if tc.table != "" {
					opts = append(opts, server.WithTable(tc.table))
				}
				return server.NewClient(c.url, http.DefaultClient, opts...)
			}
			first := startServer(t, tc.args...)
			if _, err := client(first).Insert(ctx, extra); err != nil {
				t.Fatal(err)
			}
			first.stop(t)

			second := startServer(t, tc.args...)
			res, err := client(second).Aggregate(ctx, extra, extra+1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != 1 {
				t.Fatalf("after the restart [%d, %d) holds %d values, want the acknowledged insert\nfirst server:\n%s",
					extra, extra+1, res.Count, first.log.String())
			}
			second.stop(t)
		})
	}
}

// TestSnapshotFlagConflicts: -snapshot names the one snapshot destination
// of a single-table server, so combining it with -snapshot-store or with
// -tables is a boot error naming both flags, not a silently ignored flag.
func TestSnapshotFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "x.crks")
	for _, tc := range []struct {
		args  []string
		flags []string
	}{
		{[]string{"-tables", "t:1000", "-snapshot", file}, []string{"-snapshot", "-tables"}},
		{[]string{"-snapshot", file, "-snapshot-store", filepath.Join(dir, "store")}, []string{"-snapshot", "-snapshot-store"}},
	} {
		// A server that boots instead of refusing is killed at the deadline.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], append(tc.args, "-addr", "127.0.0.1:0")...)
		cmd.Env = append(os.Environ(), "CRACKSERVER_CHILD=1")
		out, err := cmd.CombinedOutput()
		cancel()
		if err == nil {
			t.Fatalf("%v: exited 0, want a boot error:\n%s", tc.args, out)
		}
		for _, f := range tc.flags {
			if !strings.Contains(string(out), f+" ") {
				t.Fatalf("%v: error does not name %s:\n%s", tc.args, f, out)
			}
		}
		if _, err := os.Stat(file); !os.IsNotExist(err) {
			t.Fatalf("%v: a refused boot touched the snapshot file (stat: %v)", tc.args, err)
		}
	}
}
