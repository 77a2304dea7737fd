package clientres

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the prose documents whose code references must resolve.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// qualifiedRef matches pkg.Exported and pkg.Type.Member in prose.
var qualifiedRef = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)

// declIndex holds, per package name, its exported top-level names and,
// per type, its methods and struct fields.
type declIndex map[string]map[string]map[string]bool

// indexDecls parses the Go files of the root package and of every package
// under internal/. Test files count: the docs name tests as evidence, and
// an external test package (x_test) files under x.
func indexDecls(t *testing.T) declIndex {
	t.Helper()
	idx := declIndex{}
	var files []string
	root, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, root...)
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		pkg := idx[name]
		if pkg == nil {
			pkg = map[string]map[string]bool{}
			idx[name] = pkg
		}
		add := func(name, member string) {
			if pkg[name] == nil {
				pkg[name] = map[string]bool{}
			}
			if member != "" {
				pkg[name][member] = true
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name.Name, "")
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					add(id.Name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, "")
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									add(s.Name.Name, n.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n.Name, "")
						}
					}
				}
			}
		}
	}
	return idx
}

// TestDocsNameRealIdentifiers fails on any pkg.Exported (or
// pkg.Type.Member) in the prose documents that names a package of this
// module but no declaration in it, so the docs cannot point at code that
// was renamed, deleted or never written. Standard-library and other
// foreign packages are not checked.
func TestDocsNameRealIdentifiers(t *testing.T) {
	idx := indexDecls(t)
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range qualifiedRef.FindAllStringSubmatch(line, -1) {
				pkg, ok := idx[m[1]]
				if !ok {
					continue
				}
				members, ok := pkg[m[2]]
				switch {
				case !ok:
					t.Errorf("%s:%d: %s.%s is not declared", doc, i+1, m[1], m[2])
				case m[3] != "" && len(members) > 0 && !members[m[3]]:
					t.Errorf("%s:%d: %s.%s has no method or field %s", doc, i+1, m[1], m[2], m[3])
				}
			}
		}
	}
}
