package repro_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// censusTypes are the option structs the field census covers, by
// declaring package.
var censusTypes = map[string][]string{
	"repro/internal/cluster": {"CostModel"},
	"repro/internal/core":    {"Config", "Recovery"},
	"repro/internal/model":   {"GSPMV"},
	"repro/internal/serve":   {"Config"},
	"repro/internal/solver":  {"Options"},
}

// censusExceptions are the covered fields that may have no setter in
// product code, each with its reason. This list is the census's debt:
// an entry goes when its field gains a product setter or is deleted.
var censusExceptions = map[string]string{
	"core.Config.ChebOrder": "tests cap the Brownian force's multiplies to stay fast",
	"core.Config.MaxIter":   "tests starve the solves to force their failures",
	"serve.Config.Tracer":   "a test seam: tests read their requests' traces from a tracer of their own",
}

// TestOptionFieldCensus fails when an exported field of
// cluster.CostModel, core.Config, core.Recovery, model.GSPMV,
// serve.Config or solver.Options has no setter in a non-test .go file
// under internal/, cmd/ or bench/, unless censusExceptions names it;
// and when an exception names a field that is gone or has a setter. A setter is a key of a keyed composite
// literal of the field's type, or an assignment, increment or address
// of the field outside the type's own methods: a default the type
// fills in itself is not a second value. An option that only its
// default or only a test reaches is a constant or dead code, whatever
// its doc comment says (DESIGN §12, "PR 63").
func TestOptionFieldCensus(t *testing.T) {
	l := newCensusLoader(t)
	fields := map[*types.Var]string{} // every covered field, by key
	for path, names := range censusTypes {
		pkg := l.load(path).types
		for _, name := range names {
			obj := pkg.Scope().Lookup(name)
			if obj == nil {
				t.Fatalf("%s.%s: no such type", path, name)
			}
			st := obj.Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = pkg.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}

	set := map[string]string{} // field key -> the first setter's position
	for _, top := range []string{"internal", "cmd", "bench"} {
		err := filepath.WalkDir(top, func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if bp, err := build.ImportDir(dir, 0); err != nil || len(bp.GoFiles) == 0 {
				return nil // no product Go files here
			}
			p := l.load("repro/" + filepath.ToSlash(dir))
			for _, f := range p.files {
				censusSetters(p.info, f, fields, func(key string, pos token.Pos) {
					if _, ok := set[key]; !ok {
						set[key] = l.fset.Position(pos).String()
					}
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var keys []string
	for _, key := range fields {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		where, ok := set[key]
		reason, excepted := censusExceptions[key]
		switch {
		case !ok && !excepted:
			t.Errorf("%s: no setter outside tests and its own defaults; make it a constant or delete it", key)
		case ok && excepted:
			t.Errorf("%s: excepted (%s) but set at %s; drop the exception", key, reason, where)
		}
	}
	for key := range censusExceptions {
		if !slices.Contains(keys, key) {
			t.Errorf("exception %s names no covered field", key)
		}
	}
}

// censusSetters calls found for every setter in f of a field in
// fields.
func censusSetters(info *types.Info, f *ast.File, fields map[*types.Var]string, found func(key string, pos token.Pos)) {
	// owner is the named type of the method being walked, if any: its
	// assignments to its own fields are defaults.
	var owner *types.Named
	field := func(e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return
		}
		key, ok := fields[s.Obj().(*types.Var)]
		if !ok {
			return
		}
		recv := s.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if owner != nil && types.Identical(recv, owner) {
			return
		}
		found(key, sel.Pos())
	}
	for _, decl := range f.Decls {
		owner = nil
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
			rt := info.Types[fd.Recv.List[0].Type].Type
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			owner, _ = rt.(*types.Named)
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						if key, ok := fields[v]; ok {
							found(key, id.Pos())
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					field(lhs)
				}
			case *ast.IncDecStmt:
				field(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					field(n.X)
				}
			}
			return true
		})
	}
}

// censusLoader type-checks the module's packages from source, each
// once, the standard library through the source importer.
type censusLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*censusPkg
	t    *testing.T
}

type censusPkg struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
}

func newCensusLoader(t *testing.T) *censusLoader {
	// Without cgo the standard library's pure-Go files are checked and
	// no C toolchain is needed.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &censusLoader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*censusPkg{}, t: t}
}

func (l *censusLoader) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, "repro/") {
		return l.std.Import(path)
	}
	return l.load(path).types, nil
}

// load returns the checked package at path, a directory of the module
// (repro/bench is the benchmark module's main package, which imports
// this module's packages under their own paths).
func (l *censusLoader) load(path string) *censusPkg {
	if p, ok := l.pkgs[path]; ok {
		return p
	}
	dir := filepath.FromSlash(strings.TrimPrefix(path, "repro/"))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		l.t.Fatalf("%s: %v", path, err)
	}
	p := &censusPkg{info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			l.t.Fatal(err)
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		l.t.Fatalf("%s: %v", path, err)
	}
	l.pkgs[path] = p
	return p
}
