package bufir

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The public surface is a checked file, after Go's own api/go1.*.txt:
// api/<pkg>.txt lists one line per exported identifier of a public
// package — functions, methods, types, struct fields, interface
// methods, constants and variables — with its signature but no
// comments, sorted. Any change to the surface fails TestAPI until the
// file is rewritten in the same change, so every addition or deletion
// shows up in review. Regenerate with
//
//	go test . -run TestAPI -update
//
// (or `make api`).
var apiPackages = []struct{ dir, name string }{
	{".", "bufir"},
	{"obshttp", "obshttp"},
}

func TestAPI(t *testing.T) {
	for _, p := range apiPackages {
		t.Run(p.name, func(t *testing.T) {
			got, err := apiLines(p.dir, p.name)
			if err != nil {
				t.Fatal(err)
			}
			file := filepath.Join("api", p.name+".txt")
			text := strings.Join(got, "\n")
			if len(got) > 0 {
				text += "\n"
			}
			if *update {
				if err := os.WriteFile(file, []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatalf("%v (run `go test . -run TestAPI -update` to record it)", err)
			}
			if text == string(want) {
				return
			}
			wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
			for _, l := range setDiff(got, wantLines) {
				t.Errorf("+%s", l)
			}
			for _, l := range setDiff(wantLines, got) {
				t.Errorf("-%s", l)
			}
			t.Errorf("the exported surface of %s differs from %s; if the change is intended, rewrite it with `go test . -run TestAPI -update`", p.name, file)
		})
	}
}

// setDiff returns the lines of a that are not in b.
func setDiff(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, l := range b {
		in[l] = true
	}
	var out []string
	for _, l := range a {
		if !in[l] && l != "" {
			out = append(out, l)
		}
	}
	return out
}

// apiLines parses the non-test Go files of dir and returns the sorted
// surface lines of package name.
func apiLines(dir, name string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	astPkg, ok := pkgs[name]
	if !ok {
		return nil, fmt.Errorf("no package %s in %s", name, dir)
	}
	d := doc.New(astPkg, name, 0)
	w := apiWriter{fset: fset, prefix: "pkg " + name + ", "}
	w.values("const", d.Consts)
	w.values("var", d.Vars)
	w.funcs("func", d.Funcs)
	for _, typ := range d.Types {
		w.values("const", typ.Consts)
		w.values("var", typ.Vars)
		w.funcs("func", typ.Funcs)
		w.funcs("method", typ.Methods)
		for _, spec := range typ.Decl.Specs {
			w.typeSpec(spec.(*ast.TypeSpec))
		}
	}
	sort.Strings(w.lines)
	return w.lines, nil
}

type apiWriter struct {
	fset   *token.FileSet
	prefix string
	lines  []string
}

func (w *apiWriter) emit(format string, args ...any) {
	w.lines = append(w.lines, w.prefix+fmt.Sprintf(format, args...))
}

// node prints an AST node on one line.
func (w *apiWriter) node(n ast.Node) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, w.fset, n); err != nil {
		panic(err)
	}
	s := strings.Join(strings.Fields(b.String()), " ")
	s = strings.ReplaceAll(s, "( ", "(")
	return strings.ReplaceAll(s, ", )", ")")
}

func (w *apiWriter) values(kind string, vals []*doc.Value) {
	for _, v := range vals {
		for _, spec := range v.Decl.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, n := range vs.Names {
				if !n.IsExported() {
					continue
				}
				line := kind + " " + n.Name
				if vs.Type != nil {
					line += " " + w.node(vs.Type)
				}
				if i < len(vs.Values) {
					line += " = " + w.node(vs.Values[i])
				}
				w.emit("%s", line)
			}
		}
	}
}

func (w *apiWriter) funcs(kind string, fns []*doc.Func) {
	for _, f := range fns {
		recv := ""
		if f.Decl.Recv != nil {
			recv = "(" + w.node(f.Decl.Recv.List[0].Type) + ") "
		}
		w.emit("%s %s%s%s", kind, recv, f.Name, w.signature(f.Decl.Type))
	}
}

// signature prints a function type without parameter names.
func (w *apiWriter) signature(ft *ast.FuncType) string {
	s := w.node(&ast.FuncType{Func: token.NoPos, Params: unnamed(ft.Params), Results: unnamed(ft.Results)})
	return strings.TrimPrefix(s, "func")
}

// unnamed drops the names of a parameter list, one field per name.
func unnamed(fl *ast.FieldList) *ast.FieldList {
	if fl == nil {
		return nil
	}
	out := &ast.FieldList{}
	for _, f := range fl.List {
		for n := max(1, len(f.Names)); n > 0; n-- {
			out.List = append(out.List, &ast.Field{Type: f.Type})
		}
	}
	return out
}

func (w *apiWriter) typeSpec(ts *ast.TypeSpec) {
	name := ts.Name.Name
	if ts.Assign.IsValid() {
		w.emit("type %s = %s", name, w.node(ts.Type))
		return
	}
	switch t := ts.Type.(type) {
	case *ast.StructType:
		w.emit("type %s struct", name)
		for _, f := range t.Fields.List {
			if len(f.Names) == 0 {
				w.emit("type %s struct, embedded %s", name, w.node(f.Type))
			}
			for _, n := range f.Names {
				if n.IsExported() {
					w.emit("type %s struct, %s %s", name, n.Name, w.node(f.Type))
				}
			}
		}
	case *ast.InterfaceType:
		w.emit("type %s interface", name)
		for _, m := range t.Methods.List {
			if len(m.Names) == 0 {
				w.emit("type %s interface, embedded %s", name, w.node(m.Type))
			}
			for _, n := range m.Names {
				if n.IsExported() {
					w.emit("type %s interface, %s%s", name, n.Name, w.signature(m.Type.(*ast.FuncType)))
				}
			}
		}
	default:
		w.emit("type %s %s", name, w.node(ts.Type))
	}
}
