package profiling

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartDisabled(t *testing.T) {
	stop, err := Start(Config{})
	if err != nil {
		t.Fatalf("Start(empty) error: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop(empty) error: %v", err)
	}
}

func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		CPUProfile: filepath.Join(dir, "cpu.out"),
		MemProfile: filepath.Join(dir, "mem.out"),
		Trace:      filepath.Join(dir, "trace.out"),
	}
	stop, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start error: %v", err)
	}
	// Burn a little CPU so the profile has something to sample.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatalf("stop error: %v", err)
	}
	for _, p := range []string{cfg.CPUProfile, cfg.MemProfile, cfg.Trace} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("stat %s: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestStartBadPath(t *testing.T) {
	_, err := Start(Config{CPUProfile: filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.out")})
	if err == nil {
		t.Fatal("Start with unwritable path succeeded")
	}
}
