package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"tfcsim/internal/analysis"
	"tfcsim/internal/analysis/loader"
)

// jsonDiag is one finding in -json output: a flat, stable shape for
// machine consumers (CI annotations, editors).
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// standaloneRun analyzes packages without go vet: it locates the
// enclosing module, expands the argument patterns ("./..." subtrees or
// plain package directories; no arguments means everything), and
// type-checks from source via the loader. Slower than the vettool path
// (the standard library is type-checked from source once per process)
// but self-contained — handy for local runs and editor integration.
// With jsonOut, findings accumulate into one JSON array on stdout
// instead of the file:line:col lines; exit semantics are identical, so
// scripted consumers can gate on status and parse stdout.
func standaloneRun(args []string, jsonOut bool) int {
	modDir, modPath, err := findModule()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tfcvet: %v\n", err)
		return 1
	}
	dirs, err := expandPatterns(modDir, args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tfcvet: %v\n", err)
		return 1
	}

	ld := loader.New(loader.Config{ModulePath: modPath, ModuleDir: modDir})
	exit := 0
	jsonDiags := []jsonDiag{}
	for _, dir := range dirs {
		rel, err := filepath.Rel(modDir, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tfcvet: %v\n", err)
			return 1
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := ld.Load(importPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tfcvet: %v\n", err)
			exit = 1
			continue
		}
		diags, err := analysis.Check(pkg, analysis.All())
		if err != nil {
			fmt.Fprintf(os.Stderr, "tfcvet: %s: %v\n", importPath, err)
			exit = 1
			continue
		}
		if len(diags) > 0 {
			if jsonOut {
				for _, d := range diags {
					pos := pkg.Fset.Position(d.Pos)
					jsonDiags = append(jsonDiags, jsonDiag{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Check: d.Check, Message: d.Message,
					})
				}
			} else {
				printDiags(pkg, diags)
			}
			if exit == 0 {
				exit = 2
			}
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonDiags); err != nil {
			fmt.Fprintf(os.Stderr, "tfcvet: encoding json: %v\n", err)
			return 1
		}
	}
	return exit
}

// findModule walks up from the working directory to go.mod and reads
// the module path from its first `module` line.
func findModule() (dir, path string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		gomod := filepath.Join(dir, "go.mod")
		if _, statErr := os.Stat(gomod); statErr == nil {
			f, openErr := os.Open(gomod)
			if openErr != nil {
				return "", "", openErr
			}
			defer f.Close()
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				fields := strings.Fields(sc.Text())
				if len(fields) == 2 && fields[0] == "module" {
					return dir, fields[1], nil
				}
			}
			return "", "", fmt.Errorf("%s: no module line", gomod)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// expandPatterns resolves command-line package patterns to package
// directories. Supported: "<dir>/..." subtree walks, plain directories,
// and no arguments (the whole module).
func expandPatterns(modDir string, args []string) ([]string, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, arg := range args {
		if sub, isTree := strings.CutSuffix(arg, "/..."); isTree {
			root := filepath.Join(modDir, filepath.FromSlash(strings.TrimPrefix(sub, "./")))
			if sub == "." || sub == "" {
				root = modDir
			}
			err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return fs.SkipDir
				}
				// A directory with its own go.mod is another module, which
				// "./..." does not match (as with the go tool).
				if p != root {
					if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
						return fs.SkipDir
					}
				}
				if hasGoFiles(p) {
					add(p)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		dir := arg
		if !filepath.IsAbs(dir) {
			abs, err := filepath.Abs(dir)
			if err != nil {
				return nil, err
			}
			dir = abs
		}
		if !hasGoFiles(dir) {
			return nil, fmt.Errorf("no Go files in %s", dir)
		}
		add(dir)
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
