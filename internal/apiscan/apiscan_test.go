// Package apiscan holds one test: every exported identifier of the
// module's library packages must be used by some non-test file of the
// module, cmd/, examples/ and benchmark/ included. It type-checks the
// module from source with the standard library alone.
package apiscan

import (
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
	"strings"
	"testing"
)

// The reasons an exported identifier may stay with no non-test use.
const (
	codecInverse = "codec inverse pinned by a differential or fuzz test"
	waitsItem2   = "waits for ROADMAP item 2"
	waitsItem6   = "waits for ROADMAP item 6"
)

func neededBy(test string) string { return "needed by " + test + " in another package" }

// allowed maps an identifier, named as the scan reports it, to its reason.
var allowed = map[string]string{
	"types.UnmarshalTransaction":       codecInverse,
	"types.UnmarshalProposal":          codecInverse,
	"types.UnmarshalProposalResponse":  codecInverse,
	"types.UnmarshalRWSet":             codecInverse,
	"types.ProposalResponse.Marshal":   codecInverse,
	"costmodel.Model.ScaledRate":       waitsItem2,
	"costmodel.Model.UnscaledDuration": waitsItem2,
	"simcpu.CPU.Stats":                 waitsItem6,
	"simcpu.CPU.Utilization":           waitsItem6,
	"simcpu.CPU.Scale":                 waitsItem6,
	"chaos.Controller.Active":          neededBy("fabnet.TestChaosControllerBookkeeping"),
	"gossip.Node.IsLeader":             neededBy("fabnet.TestGossipKilledLeaderReelects"),
	"peer.Peer.GossipNode":             neededBy("fabnet.TestGossipKilledLeaderReelects"),
	"kafka.Cluster.KillBroker":         neededBy("fabnet.TestKafkaBrokerFailover"),
	"kafka.Cluster.Leader":             neededBy("fabnet.TestKafkaBrokerFailover"),
	"msp.MSP.Orgs":                     neededBy("fabnet.TestBuildTopology"),
	"orderer.Orderer.Subscribers":      neededBy("fabnet.TestGossipDisseminationConverges"),
	"raft.Node.CompactionBase":         neededBy("fabnet.TestRestartRaftOrdererFromPersistedState"),
	"raft.Node.LastIndex":              neededBy("fabnet.TestRestartRaftOrdererFromPersistedState"),
	"raft.Node.PersistErr":             neededBy("fabnet.TestRestartRaftOrdererFromPersistedState"),
	"transport.LinkSet.PropsFor":       neededBy("fabnet.TestChaosWANRegions"),
	"transport.LinkSet.SetDefault":     neededBy("fabnet.TestChaosLossyLinkSnapshotCatchup"),
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(importPath string) (*types.Package, error)

func (f importerFunc) Import(importPath string) (*types.Package, error) { return f(importPath) }

func TestExportedIdentifiersHaveUses(t *testing.T) {
	const root = "../.."
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	modPath := strings.Fields(string(mod))[1]
	var paths []string // import paths of the module's packages, in walk order
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(dir, 0); err == nil && len(bp.GoFiles) > 0 {
			paths = append(paths, path.Join(modPath, filepath.ToSlash(strings.TrimPrefix(dir, root))))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// load type-checks a module package from its non-test files, through
	// itself for module imports so all packages share one set of objects,
	// and counts every use of an object.
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	pkgs := map[string]*types.Package{}
	uses := map[types.Object]int{}
	var load importerFunc
	load = func(p string) (*types.Package, error) {
		if !strings.HasPrefix(p+"/", modPath+"/") {
			return std.Import(p)
		} else if pkg, ok := pkgs[p]; ok {
			return pkg, nil
		}
		dir := filepath.Join(root, strings.TrimPrefix(p, modPath))
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		files := make([]*ast.File, len(bp.GoFiles))
		for i, name := range bp.GoFiles {
			if files[i], err = parser.ParseFile(fset, filepath.Join(dir, name), nil, 0); err != nil {
				return nil, err
			}
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: load}
		if pkgs[p], err = conf.Check(p, fset, files, info); err != nil {
			return nil, err
		}
		for _, obj := range info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			uses[obj]++
		}
		return pkgs[p], nil
	}
	var ifaces []*types.Interface
	for _, p := range paths {
		pkg, err := load(p)
		if err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
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
	for _, p := range paths {
		if pkgs[p].Name() == "main" {
			continue
		}
		short := strings.TrimPrefix(strings.TrimPrefix(p, modPath+"/"), "internal/")
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
