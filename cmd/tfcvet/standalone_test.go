package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestExpandPatternsSkipsNestedModules: "./..." covers the module's own
// packages but not a subdirectory with its own go.mod, nor anything
// below it.
func TestExpandPatternsSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		t.Helper()
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module outer\n\ngo 1.22\n")
	write("a.go", "package outer\n")
	write("pkg/b.go", "package pkg\n")
	write("nested/go.mod", "module nested\n\ngo 1.22\n")
	write("nested/c.go", "package nested\n")
	write("nested/sub/d.go", "package sub\n")

	for _, args := range [][]string{nil, {"./..."}} {
		dirs, err := expandPatterns(root, args)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{root, filepath.Join(root, "pkg")}
		if !slices.Equal(dirs, want) {
			t.Fatalf("expandPatterns(%q) = %v, want %v", args, dirs, want)
		}
	}
}
