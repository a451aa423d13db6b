package apf_test

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"apf/internal/checkpoint"
)

// TestCIWorkflowMatchesMakeCI holds the Makefile to its own header: the
// prerequisites of `make ci` and the `run: make <target>` steps of the CI
// workflow are the same set, each target in exactly one workflow job — so a
// gate cannot be added to one list and silently never run in the other.
func TestCIWorkflowMatchesMakeCI(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	ciRule := regexp.MustCompile(`(?m)^ci:(.*)$`).FindSubmatch(mk)
	if ciRule == nil {
		t.Fatal("Makefile has no ci: rule")
	}
	local := strings.Fields(string(ciRule[1]))

	wf, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var remote []string
	for _, step := range regexp.MustCompile(`(?m)^\s*- run: make (.+)$`).FindAllSubmatch(wf, -1) {
		remote = append(remote, strings.Fields(string(step[1]))...)
	}

	sort.Strings(local)
	sort.Strings(remote)
	if strings.Join(local, " ") != strings.Join(remote, " ") {
		t.Errorf("`make ci` and the CI workflow run different targets:\n  make ci:  %v\n  workflow: %v", local, remote)
	}
}

// TestDocsNameCurrentVersion fails when README.md or DESIGN.md names a
// protocol or format version other than checkpoint.Version, the one
// version every frame, on the socket and on disk, is stamped with — or
// names none at all. A documented number that no test reads goes stale
// with the next format bump.
func TestDocsNameCurrentVersion(t *testing.T) {
	named := regexp.MustCompile(`(?i)\bversions?\W{0,4}(?:currently\s+)?\(?v?(\d+)`)
	want := strconv.Itoa(checkpoint.Version)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		found := named.FindAllSubmatch(src, -1)
		if len(found) == 0 {
			t.Errorf("%s names no format version; it is checkpoint.Version = %s", doc, want)
		}
		for _, m := range found {
			if string(m[1]) != want {
				t.Errorf("%s: %q names version %s, but checkpoint.Version is %s", doc, m[0], m[1], want)
			}
		}
	}
}

// TestDocsCiteExistingTests fails when DESIGN.md, README.md or
// EXPERIMENTS.md names a Test, Fuzz or Benchmark function that no _test.go
// file of the module, or of the nested bench/ module, declares: a doc that
// points a reader at a check that was renamed or deleted vouches for
// nothing.
func TestDocsCiteExistingTests(t *testing.T) {
	declared := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9]\w*`)
	seen := map[string]bool{}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cited.FindAllString(string(src), -1) {
			if !declared[name] && !seen[name] {
				t.Errorf("%s cites %s, which no _test.go file declares", doc, name)
			}
			seen[name] = true
		}
	}
	if len(seen) == 0 {
		t.Error("the docs cite no test at all")
	}
}

// TestDesignInventoryNamesEveryPackage fails when a directory under cmd/
// or internal/ that holds non-test Go is not named, in backticks, in
// DESIGN.md's "System inventory" table, and when the table names, in
// backticks, a cmd/ or internal/ path that holds no non-test Go: the
// inventory is the map a reader starts from, and a package missing from it
// is invisible there, while a row for a deleted one sends the reader to
// nothing.
func TestDesignInventoryNamesEveryPackage(t *testing.T) {
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	table := regexp.MustCompile(`(?s)\n## System inventory[^\n]*\n(.*?)\n## `).FindSubmatch(src)
	if table == nil {
		t.Fatal("DESIGN.md has no System inventory section")
	}
	pkgs := map[string]bool{}
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				pkgs[filepath.ToSlash(filepath.Dir(path))] = true
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var missing []string
	for pkg := range pkgs {
		if !strings.Contains(string(table[1]), "`"+pkg+"`") {
			missing = append(missing, pkg)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("DESIGN.md's System inventory does not name %d package(s): %s",
			len(missing), strings.Join(missing, ", "))
	}
	var stale []string
	for _, m := range regexp.MustCompile("`((?:cmd|internal)/[^`]*)`").FindAllSubmatch(table[1], -1) {
		if path := string(m[1]); !pkgs[path] && !slices.Contains(stale, path) {
			stale = append(stale, path)
		}
	}
	if len(stale) > 0 {
		t.Errorf("DESIGN.md's System inventory names %d path(s) with no non-test Go: %s",
			len(stale), strings.Join(stale, ", "))
	}
}

// TestNoUnreferencedExports fails on an exported func, method, type, var or
// const declared in a non-test file under internal/ whose name appears as an
// identifier token nowhere in the checkout's Go files (bench/ and tests
// included) but in its declarations. Names match by token, not by
// resolution, so the guard can miss dead code that shares a live name, but
// it never flags live code. Methods the standard library calls through its
// own interfaces (sort, container/heap, error, fmt, io, net/http,
// encoding/json) are live without a caller in the checkout and are exempt.
func TestNoUnreferencedExports(t *testing.T) {
	stdlibCalled := map[string]bool{"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
		"Error": true, "Unwrap": true, "Is": true, "As": true, "String": true, "Format": true,
		"Read": true, "Write": true, "Close": true, "ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true}
	uses := map[string]int{}     // identifier tokens, declarations included
	declared := map[string]int{} // exported declarations under internal/
	var decls []*ast.Ident
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT {
				uses[lit]++
			}
		}
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		add := func(id *ast.Ident) {
			if id.IsExported() {
				declared[id.Name]++
				decls = append(decls, id)
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil || !stdlibCalled[decl.Name.Name] {
					add(decl.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}
	for _, id := range decls {
		if uses[id.Name] <= declared[id.Name] {
			t.Errorf("%s: exported %s is referenced nowhere in the checkout; delete it", fset.Position(id.Pos()), id.Name)
		}
	}
}
