package pathindex

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenCorruptPacked: a damaged or missing packed.idx must fail Open
// (or a later probe) with an error, never serve bad results. A directory
// without packed.idx — the shape a B+-tree-era index directory presents —
// fails with an error wrapping os.ErrNotExist.
func TestOpenCorruptPacked(t *testing.T) {
	g := motivating(t)
	build := func(t *testing.T) string {
		dir := filepath.Join(t.TempDir(), "ix")
		ix, err := Build(context.Background(), g, Options{MaxLen: 2, Beta: 0.05, Gamma: 0.1, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
		wantErr error // if non-nil, Open's error must wrap it
	}{
		{"missing", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}, os.ErrNotExist},
		{"truncated", func(t *testing.T, path string) {
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			os.Truncate(path, st.Size()/2)
		}, nil},
		{"garbage", func(t *testing.T, path string) {
			os.WriteFile(path, []byte("PEGXnot really an index"), 0o644)
		}, nil},
		{"bad-magic", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[0] = 'Z'
			os.WriteFile(path, b, 0o644)
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := build(t)
			tc.corrupt(t, filepath.Join(dir, "packed.idx"))
			ix, err := Open(dir, g)
			if err == nil {
				ix.Close()
				t.Fatal("corrupt packed index opened without error")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Errorf("Open error %v does not wrap %v", err, tc.wantErr)
			}
		})
	}
}

func TestOpenIntactAfterFailureTests(t *testing.T) {
	// Sanity: an untouched directory still opens.
	g := motivating(t)
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(context.Background(), g, Options{MaxLen: 1, Beta: 0.1, Gamma: 0.1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(dir, g)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ix2.Close()
}
