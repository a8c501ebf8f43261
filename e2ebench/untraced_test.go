package main

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// TestChurnBootCancelledRemovesWALDir interrupts a churn run while its
// server is still booting, as SIGINT does: the run must fail, kill the
// server and leave no WAL directory behind.
func TestChurnBootCancelledRemovesWALDir(t *testing.T) {
	t.Cleanup(func() { debug.SetGCPercent(100); debug.SetMemoryLimit(-1) })
	bin, work := t.TempDir(), t.TempDir()
	started := filepath.Join(work, "started")
	// A server that never becomes healthy; it marks that it was launched.
	script := "#!/bin/sh\n: > " + started + "\nexec sleep 60\n"
	if err := os.WriteFile(filepath.Join(bin, "topsserve"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(work, "tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	go func() {
		for ctx.Err() == nil {
			if _, err := os.Stat(started); err == nil {
				cancel()
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	ps := &procs{}
	e := &env{bin: bin, work: work, seed: 1, seconds: time.Second, nproc: runtime.NumCPU(), ps: ps}
	if _, err := runUntraced(ctx, e, workloadByName("churn")); err == nil {
		t.Fatal("run succeeded without a healthy server")
	}
	if left, _ := filepath.Glob(filepath.Join(work, "tmp", "wal-*")); len(left) != 0 {
		t.Errorf("WAL directories left behind: %v", left)
	}
	if _, err := os.Stat(started); err != nil {
		t.Fatal("the server was never launched; the test did not reach boot")
	}
	if len(ps.list) != 0 {
		t.Errorf("%d server processes still tracked", len(ps.list))
	}
}
