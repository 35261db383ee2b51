package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestResolveJSONOut(t *testing.T) {
	dir := t.TempDir()
	now := time.Date(2026, 8, 6, 12, 34, 56, 0, time.UTC)
	stamp := "BENCH_20260806T123456.json"

	t.Run("empty means disabled", func(t *testing.T) {
		path, err := resolveJSONOut("", now)
		if err != nil || path != "" {
			t.Fatalf("got (%q, %v), want empty/no error", path, err)
		}
	})

	t.Run("explicit path kept verbatim", func(t *testing.T) {
		want := filepath.Join(dir, "run.json")
		path, err := resolveJSONOut(want, now)
		if err != nil || path != want {
			t.Fatalf("got (%q, %v), want %q", path, err, want)
		}
	})

	t.Run("bare auto lands in cwd", func(t *testing.T) {
		path, err := resolveJSONOut("auto", now)
		if err != nil {
			t.Fatal(err)
		}
		if path != stamp {
			t.Fatalf("got %q, want %q", path, stamp)
		}
	})

	t.Run("auto respects the output directory", func(t *testing.T) {
		path, err := resolveJSONOut(filepath.Join(dir, "auto"), now)
		if err != nil {
			t.Fatal(err)
		}
		if want := filepath.Join(dir, stamp); path != want {
			t.Fatalf("got %q, want %q", path, want)
		}
	})

	t.Run("timestamp is pinned at startup", func(t *testing.T) {
		a, _ := resolveJSONOut("auto", now)
		b, _ := resolveJSONOut("auto", now.Add(3*time.Hour))
		if a == b {
			t.Fatalf("different start times produced the same name %q", a)
		}
	})

	t.Run("missing directory fails up front", func(t *testing.T) {
		_, err := resolveJSONOut(filepath.Join(dir, "nope", "auto"), now)
		if err == nil {
			t.Fatal("nonexistent directory accepted")
		}
	})

	t.Run("file in the directory position fails", func(t *testing.T) {
		file := filepath.Join(dir, "plainfile")
		if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := resolveJSONOut(filepath.Join(file, "auto"), now)
		if err == nil {
			t.Fatal("regular file accepted as output directory")
		}
		if !strings.Contains(err.Error(), "-json-out") {
			t.Fatalf("error %q does not name the flag", err)
		}
	})

	t.Run("probe leaves no residue", func(t *testing.T) {
		sub := filepath.Join(dir, "clean")
		if err := os.Mkdir(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := resolveJSONOut(filepath.Join(sub, "auto"), now); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(sub)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("probe left %d file(s) behind", len(entries))
		}
	})
}

func TestWriteJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.json")
	doc := benchDoc{
		GeneratedAt: "2026-08-06T12:00:00Z",
		Shots:       1000,
		Seed:        7,
		Norm:        "l2phase",
		Workers:     2,
		Rows: []benchRow{
			{Name: "qft_16", Qubits: 16, Status: "ok", DDSeconds: 0.27, FreezeSeconds: 0.01},
			{Name: "supremacy_5x5_10", Status: "MO"},
		},
	}
	if err := writeJSON(path, &doc); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back benchDoc
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Shots != 1000 || len(back.Rows) != 2 || back.Rows[0].Name != "qft_16" ||
		back.Rows[0].DDSeconds != 0.27 || back.Rows[0].FreezeSeconds != 0.01 {
		t.Fatalf("round trip mangled the document: %+v", back)
	}
	if back.Rows[1].Status != "MO" || back.Rows[1].DDSeconds != 0 {
		t.Fatalf("MO row mangled: %+v", back.Rows[1])
	}
}
