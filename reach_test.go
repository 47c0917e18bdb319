package repro

// The reachability audit. Every exported identifier under internal/ is
// reached from non-test code outside its package, and every unexported
// top-level function, method and type is referenced by something, tests
// included. The audit parses and type-checks each package once from source,
// with its in-package test files (an external test package is one more
// check); the standard library comes from the toolchain's export data.

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllow lists the exported identifiers under internal/ that only tests
// outside their package reach: test oracles, comparators and cross-package
// test hooks, each with the reason it stays exported. An entry the audit
// would pass without fails it.
var reachAllow = map[string]string{
	"cpuref.Conv2D":          "the direct-convolution oracle the topi, relay and host tests compare against",
	"tensor.AllClose":        "the tolerance comparator of the cross-package numeric tests",
	"tensor.Tensor.Sum":      "the checksum comparator of the nn, relay and cpuref tests (a softmax sums to 1)",
	"ir.Dump":                "the IR printer schedule and sim tests read loop order and pragmas from",
	"ir.Linearize":           "the affine decomposition aoc's stride-rule oracle is built on",
	"aoc.KernelModel.Cycles": "the bench package's ablation benchmarks compare kernel cycle counts",
	"sim.Machine.Channel":    "host tests read a channel FIFO's peak occupancy against its declared depth",
	"trace.Gauge.Value":      "tests read a gauge back from a deployment's or server's registry",
	"dse.BuildSpace":         "aoc's stride sweep draws kernels from seeded points of the joint schedule space",
	"dse.Space.Config":       "aoc's stride sweep builds those points' folded configs",
}

const modulePath = "repro"

// auditRoots are the directories whose Go the audit loads.
var auditRoots = []string{".", "internal", "cmd", "examples", "benchmark"}

// auditPkg is one type-checked package.
type auditPkg struct {
	files []*ast.File
	test  map[*ast.File]bool
	pkg   *types.Package
	info  *types.Info
}

type auditLoad struct {
	fset *token.FileSet
	pkgs []*auditPkg
}

var (
	auditOnce    sync.Once
	audit        *auditLoad
	auditLoadErr error
)

func loadAudit(t *testing.T) *auditLoad {
	t.Helper()
	auditOnce.Do(func() { audit, auditLoadErr = loadTree() })
	if auditLoadErr != nil {
		t.Fatal(auditLoadErr)
	}
	return audit
}

// srcPkg is one directory's package as go/build selects its files for this
// platform.
type srcPkg struct {
	goFiles, inTests, xTest []string
	imports                 []string
}

func loadTree() (*auditLoad, error) {
	src := map[string]*srcPkg{}
	for _, root := range auditRoots {
		err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if dir != root && (root == "." || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return addDir(src, dir)
		})
		if err != nil {
			return nil, err
		}
	}
	std := map[string]bool{}
	for _, p := range src {
		for _, imp := range p.imports {
			if src[imp] == nil {
				std[imp] = true
			}
		}
	}
	exports, err := stdExports(std)
	if err != nil {
		return nil, err
	}
	l := &auditLoad{fset: token.NewFileSet()}
	stdImp := importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})

	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		sp, ok := src[path]
		if !ok {
			return stdImp.Import(path)
		}
		ap, err := l.check(path, sp.goFiles, sp.inTests, imp)
		if err != nil {
			return nil, err
		}
		checked[path] = ap.pkg
		return ap.pkg, nil
	}
	paths := make([]string, 0, len(src))
	for p := range src {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp(p); err != nil {
			return nil, err
		}
	}
	for _, p := range paths {
		if x := src[p].xTest; len(x) > 0 {
			if _, err := l.check(p+"_test", nil, x, imp); err != nil {
				return nil, err
			}
		}
	}
	return l, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func addDir(src map[string]*srcPkg, dir string) error {
	bp, err := build.Default.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil
	}
	if err != nil {
		return err
	}
	path := modulePath
	if dir != "." {
		path += "/" + filepath.ToSlash(dir)
	}
	join := func(names []string) []string {
		out := make([]string, len(names))
		for i, n := range names {
			out[i] = filepath.Join(dir, n)
		}
		return out
	}
	src[path] = &srcPkg{
		goFiles: join(bp.GoFiles), inTests: join(bp.TestGoFiles), xTest: join(bp.XTestGoFiles),
		imports: append(append(bp.Imports, bp.TestImports...), bp.XTestImports...),
	}
	return nil
}

// check parses and type-checks one package; testFiles are marked as tests.
func (l *auditLoad) check(path string, goFiles, testFiles []string, imp types.Importer) (*auditPkg, error) {
	ap := &auditPkg{test: map[*ast.File]bool{}}
	for i, name := range append(append([]string(nil), goFiles...), testFiles...) {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		ap.files = append(ap.files, f)
		ap.test[f] = i >= len(goFiles)
	}
	ap.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, l.fset, ap.files, ap.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	ap.pkg = pkg
	l.pkgs = append(l.pkgs, ap)
	return ap, nil
}

// stdExports maps each standard-library package the tree imports, and its
// dependencies, to its export data file, with one go list call.
func stdExports(std map[string]bool) (map[string]string, error) {
	pkgs := make([]string, 0, len(std))
	for p := range std {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}, pkgs...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if path, file, ok := strings.Cut(sc.Text(), "\t"); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, sc.Err()
}

// decl is one audited declaration: a package-level object or a method,
// declared in a non-test file.
type decl struct {
	obj  types.Object
	span [2]token.Pos // the declaration's own extent
}

// name is how the audit prints obj: "sim.Machine.Channel" for a method,
// "cpuref.Conv2D" otherwise, with the module's internal/ prefix dropped.
func (d decl) name() string {
	short := strings.TrimPrefix(d.obj.Pkg().Path(), modulePath+"/internal/")
	if tn := recvTypeName(d.obj); tn != nil {
		return short + "." + tn.Name() + "." + d.obj.Name()
	}
	return short + "." + d.obj.Name()
}

// recvTypeName is the type a method is declared on, or nil for anything
// else.
func recvTypeName(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	rt := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if n, ok := rt.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// decls lists the declarations of every loaded package's non-test files.
func (l *auditLoad) decls() []decl {
	var out []decl
	add := func(ap *auditPkg, id *ast.Ident, n ast.Node) {
		if obj := ap.info.Defs[id]; obj != nil && id.Name != "_" {
			out = append(out, decl{obj: obj, span: [2]token.Pos{n.Pos(), n.End()}})
		}
	}
	for _, ap := range l.pkgs {
		for _, f := range ap.files {
			if ap.test[f] {
				continue
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil || (d.Name.Name != "init" && d.Name.Name != "main") {
						add(ap, d.Name, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(ap, s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(ap, id, s)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// use is one reference to an object.
type use struct {
	pkg  *types.Package
	pos  token.Pos
	test bool // from a test file
}

// uses indexes every reference in the loaded files, test files included,
// by the object referenced (a generic's origin, not its instances).
func (l *auditLoad) uses() map[types.Object][]use {
	out := map[types.Object][]use{}
	for _, ap := range l.pkgs {
		for _, f := range ap.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := ap.info.Uses[id]; obj != nil {
						obj = origin(obj)
						out[obj] = append(out[obj], use{pkg: ap.pkg, pos: id.Pos(), test: ap.test[f]})
					}
				}
				return true
			})
		}
	}
	return out
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// interfaces collects every interface with methods that the loaded packages
// and the packages they import declare, the ones the loaded code spells
// inline, and the errors package's unexported Unwrap, Is and As protocols.
func (l *auditLoad) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	errT := types.Universe.Lookup("error").Type()
	add(errT)
	tuple := func(ts ...types.Type) *types.Tuple {
		vars := make([]*types.Var, len(ts))
		for i, t := range ts {
			vars[i] = types.NewParam(token.NoPos, nil, "", t)
		}
		return types.NewTuple(vars...)
	}
	boolT := types.Typ[types.Bool]
	for _, m := range []struct {
		name            string
		params, results *types.Tuple
	}{
		{"Unwrap", tuple(), tuple(errT)},
		{"Unwrap", tuple(), tuple(types.NewSlice(errT))},
		{"Is", tuple(errT), tuple(boolT)},
		{"As", tuple(types.Universe.Lookup("any").Type()), tuple(boolT)},
	} {
		sig := types.NewSignatureType(nil, nil, nil, m.params, m.results, false)
		add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, m.name, sig)}, nil).Complete())
	}
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, ap := range l.pkgs {
		walk(ap.pkg)
		for _, tv := range ap.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}

// implementing returns the methods through which a named type of the loaded
// packages, or a pointer to one, implements one of ifaces, promoted methods
// included.
func (l *auditLoad) implementing(ifaces []*types.Interface) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, ap := range l.pkgs {
		scope := ap.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				ms := types.NewMethodSet(t)
				if ms.Len() == 0 {
					continue
				}
				for _, it := range ifaces {
					if !types.Implements(t, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						if sel := ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
							out[origin(sel.Obj())] = true
						}
					}
				}
			}
		}
	}
	return out
}

// apiTypes calls mark on every named type obj's API mentions: a function's
// receiver, parameters and results, a variable's or constant's type, and a
// type's definition with its exported fields and interface methods.
func apiTypes(obj types.Object, mark func(*types.TypeName)) {
	seen := map[types.Type]bool{}
	var walk func(t types.Type, top bool)
	walk = func(t types.Type, top bool) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if !top {
				mark(t.Origin().Obj())
				return
			}
			walk(t.Underlying(), false)
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i), false)
			}
		case *types.Alias:
			walk(types.Unalias(t), top)
		case *types.Pointer:
			walk(t.Elem(), false)
		case *types.Slice:
			walk(t.Elem(), false)
		case *types.Array:
			walk(t.Elem(), false)
		case *types.Map:
			walk(t.Key(), false)
			walk(t.Elem(), false)
		case *types.Chan:
			walk(t.Elem(), false)
		case *types.Signature:
			if t.Recv() != nil {
				walk(t.Recv().Type(), false)
			}
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type(), false)
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type(), false)
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type(), false)
			}
			for i := 0; i < t.NumEmbeddeds(); i++ {
				walk(t.EmbeddedType(i), false)
			}
		}
	}
	_, isType := obj.(*types.TypeName)
	walk(obj.Type(), isType)
}

// auditReport is what the audit found: exported identifiers under internal/
// that nothing outside their package reaches, allowlist entries that are not
// needed, and unexported declarations that nothing references.
type auditReport struct {
	unreached, stale, dead []string
}

// usedBy says where an unreached identifier's references are.
func usedBy(fset *token.FileSet, us []use) string {
	files := map[string]bool{}
	for _, u := range us {
		files[filepath.ToSlash(fset.Position(u.pos).Filename)] = true
	}
	if len(files) == 0 {
		return "no references"
	}
	names := make([]string, 0, len(files))
	for f := range files {
		names = append(names, f)
	}
	sort.Strings(names)
	return "referenced only in " + strings.Join(names, ", ")
}

func (l *auditLoad) report(allow map[string]string) auditReport {
	uses := l.uses()
	satisfying := l.implementing(l.interfaces())
	all := l.decls()

	// An exported identifier under internal/ is reached when non-test code
	// of another package references it, when it is a method that satisfies
	// an interface, when it is a type in the API of a reached identifier or
	// a constant of such a type, or when the allowlist names it.
	reached := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		if !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	closeOver := func(exported []decl) {
		for {
			for len(work) > 0 {
				obj := work[len(work)-1]
				work = work[:len(work)-1]
				apiTypes(obj, func(tn *types.TypeName) {
					if tn.Pkg() != nil && strings.HasPrefix(tn.Pkg().Path(), modulePath+"/") {
						mark(tn)
					}
				})
			}
			for _, d := range exported {
				if n, ok := d.obj.Type().(*types.Named); ok && reached[n.Obj()] {
					if _, isConst := d.obj.(*types.Const); isConst {
						mark(d.obj)
					}
				}
			}
			if len(work) == 0 {
				return
			}
		}
	}
	var exported []decl
	for _, d := range all {
		if !d.obj.Exported() || !strings.HasPrefix(d.obj.Pkg().Path(), modulePath+"/internal/") {
			continue
		}
		exported = append(exported, d)
		if satisfying[d.obj] {
			mark(d.obj)
		}
		for _, u := range uses[d.obj] {
			if !u.test && u.pkg != d.obj.Pkg() {
				mark(d.obj)
				break
			}
		}
	}
	closeOver(exported)
	withoutAllow := map[types.Object]bool{}
	for obj := range reached {
		withoutAllow[obj] = true
	}

	var r auditReport
	byName := map[string]decl{}
	for _, d := range exported {
		byName[d.name()] = d
	}
	for name := range allow {
		d, ok := byName[name]
		switch {
		case !ok:
			r.stale = append(r.stale, name+": no such exported identifier under internal/")
		case withoutAllow[d.obj]:
			r.stale = append(r.stale, name+": reached without the allowlist")
		default:
			mark(d.obj)
		}
	}
	closeOver(exported)
	for _, d := range exported {
		if !reached[d.obj] {
			r.unreached = append(r.unreached, d.name()+": "+usedBy(l.fset, uses[d.obj]))
		}
	}

	// An unexported function, method or type is referenced when anything
	// outside its own declaration (a type's own methods count as part of
	// it) refers to it, tests included, or when it is a method that
	// satisfies an interface.
	own := map[types.Object][][2]token.Pos{}
	for _, d := range all {
		own[d.obj] = append(own[d.obj], d.span)
		if tn := recvTypeName(d.obj); tn != nil {
			own[tn] = append(own[tn], d.span)
		}
	}
	for _, d := range all {
		switch d.obj.(type) {
		case *types.Func, *types.TypeName:
		default:
			continue
		}
		if d.obj.Exported() || satisfying[d.obj] {
			continue
		}
		referenced := false
		for _, u := range uses[d.obj] {
			if !inSpan(u.pos, own[d.obj]) {
				referenced = true
				break
			}
		}
		if !referenced {
			r.dead = append(r.dead, d.name())
		}
	}
	sort.Strings(r.unreached)
	sort.Strings(r.stale)
	sort.Strings(r.dead)
	return r
}

func inSpan(pos token.Pos, spans [][2]token.Pos) bool {
	for _, s := range spans {
		if s[0] <= pos && pos < s[1] {
			return true
		}
	}
	return false
}

// TestExportedIdentifiersAreReached fails on an exported identifier under
// internal/ that no non-test code outside its package reaches: unexport it,
// delete it, or, for a test oracle, comparator or cross-package test hook,
// add it to reachAllow with the reason. It also fails on a stale allowlist
// entry.
func TestExportedIdentifiersAreReached(t *testing.T) {
	r := loadAudit(t).report(reachAllow)
	if len(r.unreached) > 0 {
		t.Errorf("%d exported identifiers under internal/ are not reached from non-test code outside their package:\n\t%s",
			len(r.unreached), strings.Join(r.unreached, "\n\t"))
	}
	if len(r.stale) > 0 {
		t.Errorf("stale reachAllow entries:\n\t%s", strings.Join(r.stale, "\n\t"))
	}
}

// TestUnexportedDeclarationsAreReferenced fails on an unexported top-level
// function, method or type that nothing references, not even a test.
func TestUnexportedDeclarationsAreReferenced(t *testing.T) {
	r := loadAudit(t).report(reachAllow)
	if len(r.dead) > 0 {
		t.Errorf("%d unexported declarations are referenced by nothing:\n\t%s", len(r.dead), strings.Join(r.dead, "\n\t"))
	}
}
