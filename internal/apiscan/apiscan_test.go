// Package apiscan holds the module's source scans: every exported
// identifier of the module's library packages must be used by some
// non-test file of the module, cmd/, examples/ and benchmark/ included,
// every exported Config or Options field set and read, and every test
// wait on a condition (waits_test.go). It type-checks the module from
// source with the standard library alone.
package apiscan

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The reasons an exported identifier may stay with no non-test use.
const (
	codecInverse = "codec inverse pinned by a differential or fuzz test"
	waitsItem6   = "waits for ROADMAP item 6"
)

func neededBy(test string) string { return "needed by " + test + " in another package" }

// allowed maps an identifier, named as the scan reports it, to its reason.
var allowed = map[string]string{
	"types.UnmarshalTransaction":      codecInverse,
	"types.UnmarshalProposal":         codecInverse,
	"types.UnmarshalProposalResponse": codecInverse,
	"types.UnmarshalRWSet":            codecInverse,
	"types.ProposalResponse.Marshal":  codecInverse,
	"simcpu.CPU.Stats":                waitsItem6,
	"simcpu.CPU.Utilization":          waitsItem6,
	"simcpu.CPU.Scale":                waitsItem6,
	"chaos.Controller.Active":         neededBy("fabnet.TestChaosControllerBookkeeping"),
	"gossip.Node.IsLeader":            neededBy("fabnet.TestGossipKilledLeaderReelects"),
	"peer.Peer.GossipNode":            neededBy("fabnet.TestGossipKilledLeaderReelects"),
	"kafka.Cluster.KillBroker":        neededBy("fabnet.TestKafkaBrokerFailover"),
	"kafka.Cluster.Leader":            neededBy("fabnet.TestKafkaBrokerFailover"),
	"msp.MSP.Orgs":                    neededBy("fabnet.TestBuildTopology"),
	"raft.Node.CompactionBase":        neededBy("fabnet.TestRestartRaftOrdererFromPersistedState"),
	"raft.Node.LastIndex":             neededBy("fabnet.TestRestartRaftOrdererFromPersistedState"),
	"raft.Node.PersistErr":            neededBy("fabnet.TestRestartRaftOrdererFromPersistedState"),
	"transport.LinkSet.PropsFor":      neededBy("fabnet.TestChaosWANRegions"),
	"transport.LinkSet.SetDefault":    neededBy("fabnet.TestChaosLossyLinkSnapshotCatchup"),
	"simtest.Until":                   "needed by every package's tests: their one wait on a condition",
}

// plainBuild is the build context of a plain `go build`: GOEXPERIMENT
// in the environment would add goexperiment.* tags to build.Default and
// bring in test-only files such as internal/simtest's Run, which builds
// only under goexperiment.synctest. The scans see simtest's Until alone.
var plainBuild = func() build.Context {
	c := build.Default
	c.ToolTags = slices.DeleteFunc(slices.Clone(c.ToolTags), func(tag string) bool {
		return strings.HasPrefix(tag, "goexperiment.")
	})
	return c
}()

// importerFunc adapts a function to types.Importer.
type importerFunc func(importPath string) (*types.Package, error)

func (f importerFunc) Import(importPath string) (*types.Package, error) { return f(importPath) }

// module is the type-checked module: every package from its non-test
// files, the files themselves, and what each identifier resolves to.
type module struct {
	fset    *token.FileSet
	modPath string
	paths   []string // import paths of the module's packages, in walk order
	pkgs    map[string]*types.Package
	files   map[string][]*ast.File
	info    *types.Info // shared by all packages
}

// short names a package the way the scans report it.
func (m *module) short(p string) string {
	return strings.TrimPrefix(strings.TrimPrefix(p, m.modPath+"/"), "internal/")
}

var (
	loadOnce   sync.Once
	loaded     *module
	loadFailed error
)

// loadModule type-checks the module once per test binary; both scans
// read the result.
func loadModule(t *testing.T) *module {
	t.Helper()
	loadOnce.Do(func() { loaded, loadFailed = typeCheckModule() })
	if loadFailed != nil {
		t.Fatal(loadFailed)
	}
	return loaded
}

// typeCheckModule type-checks the module rooted two directories up,
// through itself for module imports so all packages share one set of
// objects.
func typeCheckModule() (*module, error) {
	const root = "../.."
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{
		fset:    token.NewFileSet(),
		modPath: strings.Fields(string(mod))[1],
		pkgs:    map[string]*types.Package{},
		files:   map[string][]*ast.File{},
		info:    &types.Info{Uses: map[*ast.Ident]types.Object{}},
	}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		if bp, err := plainBuild.ImportDir(dir, 0); err == nil && len(bp.GoFiles) > 0 {
			m.paths = append(m.paths, path.Join(m.modPath, filepath.ToSlash(strings.TrimPrefix(dir, root))))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	std := importer.ForCompiler(m.fset, "source", nil)
	var load importerFunc
	load = func(p string) (*types.Package, error) {
		if !strings.HasPrefix(p+"/", m.modPath+"/") {
			return std.Import(p)
		} else if pkg, ok := m.pkgs[p]; ok {
			return pkg, nil
		}
		dir := filepath.Join(root, strings.TrimPrefix(p, m.modPath))
		bp, err := plainBuild.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		files := make([]*ast.File, len(bp.GoFiles))
		for i, name := range bp.GoFiles {
			if files[i], err = parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0); err != nil {
				return nil, err
			}
		}
		conf := types.Config{Importer: load}
		if m.pkgs[p], err = conf.Check(p, m.fset, files, m.info); err != nil {
			return nil, err
		}
		m.files[p] = files
		return m.pkgs[p], nil
	}
	for _, p := range m.paths {
		if _, err := load(p); err != nil {
			return nil, fmt.Errorf("type-check %s: %w", p, err)
		}
	}
	return m, nil
}

func TestExportedIdentifiersHaveUses(t *testing.T) {
	m := loadModule(t)
	fset, pkgs := m.fset, m.pkgs
	uses := map[types.Object]int{}
	for _, obj := range m.info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		uses[obj]++
	}
	var ifaces []*types.Interface
	for _, p := range m.paths {
		pkg := pkgs[p]
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
			}
		}
	}
	// exempt reports whether typ's method called name needs no use of its
	// own: String, Error, Close, and the methods of module interfaces that
	// typ or *typ implements.
	exempt := func(typ types.Type, name string) bool {
		for _, it := range ifaces {
			if meth, _, _ := types.LookupFieldOrMethod(it, false, nil, name); meth != nil &&
				(types.Implements(typ, it) || types.Implements(types.NewPointer(typ), it)) {
				return true
			}
		}
		return name == "String" || name == "Error" || name == "Close"
	}

	seen := map[string]bool{}
	// check fails obj unless it has an allowlist entry or more uses than
	// the receivers of its own methods make.
	check := func(label string, obj types.Object, receivers int) {
		_, listed := allowed[label]
		seen[label] = true
		if used := uses[obj] > receivers; used && listed {
			t.Errorf("%s is used now; drop its allowlist entry", label)
		} else if !used && !listed {
			t.Errorf("%s is exported but unused outside tests (%s)", label, fset.Position(obj.Pos()))
		}
	}
	for _, p := range m.paths {
		if pkgs[p].Name() == "main" {
			continue
		}
		short := m.short(p)
		for _, name := range pkgs[p].Scope().Names() {
			obj := pkgs[p].Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			named, _ := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || named == nil || types.IsInterface(named) {
				check(short+"."+name, obj, 0)
				continue
			}
			check(short+"."+name, obj, named.NumMethods())
			for i := 0; i < named.NumMethods(); i++ {
				if meth := named.Method(i); meth.Exported() && !exempt(named, meth.Name()) {
					check(short+"."+name+"."+meth.Name(), meth, 0)
				}
			}
		}
	}
	for label := range allowed {
		if !seen[label] {
			t.Errorf("allowlist entry %s names no exported identifier", label)
		}
	}
}

// writes walks a file and hands record every expression a statement or
// composite literal writes to, with the if statements enclosing it.
type writes struct {
	record func(e ast.Expr, ifs []*ast.IfStmt)
	ifs    []*ast.IfStmt
}

func (w writes) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.IfStmt:
		w.ifs = append(w.ifs[:len(w.ifs):len(w.ifs)], n)
	case *ast.KeyValueExpr:
		if id, ok := n.Key.(*ast.Ident); ok { // a struct field key, not a map key
			w.record(id, w.ifs)
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			w.record(lhs, w.ifs)
		}
	case *ast.IncDecStmt:
		w.record(n.X, w.ifs)
	case *ast.RangeStmt:
		if n.Tok == token.ASSIGN {
			w.record(n.Key, w.ifs)
			w.record(n.Value, w.ifs)
		}
	}
	return w
}

// fieldWrites walks the module's non-test files and calls f with each
// field that a statement or composite literal writes, the identifier
// naming it there, and the enclosing if statements whose conditions
// read the same field: the ifs that make the write a default fill.
func (m *module) fieldWrites(f func(id *ast.Ident, v *types.Var, fills []*ast.IfStmt)) {
	w := writes{record: func(e ast.Expr, ifs []*ast.IfStmt) {
		var id *ast.Ident
		switch e := e.(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			id = e.Sel
		default:
			return
		}
		v, ok := m.info.Uses[id].(*types.Var)
		if !ok || !v.IsField() {
			return
		}
		var fills []*ast.IfStmt
		for _, s := range ifs {
			if m.mentions(s.Cond, v) {
				fills = append(fills, s)
			}
		}
		f(id, v, fills)
	}}
	for _, p := range m.paths {
		for _, file := range m.files[p] {
			ast.Walk(w, file)
		}
	}
}

// mentions reports whether n names v.
func (m *module) mentions(n ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && m.info.Uses[id] == v {
			found = true
		}
		return !found
	})
	return found
}

// checkConfigFields fails each exported field of an exported *Config or
// *Options struct of a library package that is missing from has and not
// listed in allow, each listed field that has holds, and each entry of
// allow that names no such field. verb names what has records.
func checkConfigFields(t *testing.T, m *module, has map[*types.Var]bool, allow map[string]string, verb string) {
	t.Helper()
	seen := map[string]bool{}
	fields, structs := 0, 0
	for _, p := range m.paths {
		pkg := m.pkgs[p]
		if pkg.Name() == "main" {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			structs++
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				if !v.Exported() {
					continue
				}
				fields++
				label := m.short(p) + "." + name + "." + v.Name()
				_, listed := allow[label]
				seen[label] = true
				if has[v] && listed {
					t.Errorf("%s is %s now; drop its allowlist entry", label, verb)
				} else if !has[v] && !listed {
					t.Errorf("%s is never %s outside tests and default fills (%s)", label, verb, m.fset.Position(v.Pos()))
				}
			}
		}
	}
	t.Logf("%d exported fields in %d Config and Options types", fields, structs)
	for label := range allow {
		if !seen[label] {
			t.Errorf("allowlist entry %s names no Config or Options field", label)
		}
	}
}

// allowedUnset maps a Config or Options field that may stay with no
// non-test write, named as the scan reports it, to its reason.
var allowedUnset = map[string]string{}

// TestConfigFieldsAreSet fails on an exported field of an exported
// *Config or *Options struct of a library package that no non-test file
// sets: a setting nobody sets has one value, and belongs in a constant.
// A composite-literal key, an assignment, an increment or a range
// assignment sets a field; an assignment under an if whose condition
// reads the same field fills in its default, and does not.
func TestConfigFieldsAreSet(t *testing.T) {
	m := loadModule(t)
	set := map[*types.Var]bool{}
	m.fieldWrites(func(_ *ast.Ident, v *types.Var, fills []*ast.IfStmt) {
		if len(fills) == 0 {
			set[v] = true
		}
	})
	checkConfigFields(t, m, set, allowedUnset, "set")
}

// allowedUnread maps a Config or Options field that may stay with no
// non-test read, named as the scan reports it, to its reason.
var allowedUnread = map[string]string{
	"fabnet.Config.NumZooKeepers": "set only by the frozen benchmark; ROADMAP item 5 deletes it",
}

// TestConfigFieldsAreRead fails on an exported field of an exported
// *Config or *Options struct of a library package that no non-test file
// reads: a setting nothing reads is a knob that does nothing. Every
// mention of a field counts as a read except the writes
// TestConfigFieldsAreSet counts, and the mentions in the condition of a
// default fill, an if whose body writes the field it tests.
func TestConfigFieldsAreRead(t *testing.T) {
	m := loadModule(t)
	notRead := map[*ast.Ident]bool{}
	m.fieldWrites(func(id *ast.Ident, v *types.Var, fills []*ast.IfStmt) {
		notRead[id] = true
		for _, s := range fills {
			ast.Inspect(s.Cond, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && m.info.Uses[id] == v {
					notRead[id] = true
				}
				return true
			})
		}
	})
	read := map[*types.Var]bool{}
	for id, obj := range m.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !notRead[id] {
			read[v] = true
		}
	}
	checkConfigFields(t, m, read, allowedUnread, "read")
}
