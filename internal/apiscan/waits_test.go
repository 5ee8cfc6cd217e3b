package apiscan

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The reasons a test may sleep: each sleep waits for no condition.
const (
	negativeWindow = "negative window: nothing may happen while it lasts"
	stubLatency    = "stub latency: a fake node's modeled delay"
	spreadTimes    = "spreads timestamps across sampler or timer periods"
)

// allowedSleeps lists each time.Sleep a test may make, once per call,
// by its file from the module root and its enclosing top-level function.
var allowedSleeps = []struct{ at, reason string }{
	{"internal/gateway/gateway_test.go newStubNet", stubLatency},
	{"internal/gateway/gateway_test.go TestFailedBroadcastLeavesNoPending", negativeWindow},
	{"internal/gateway/gateway_test.go TestBroadcastBudget", stubLatency},
	{"internal/gateway/gateway_test.go TestStaleExpiryNeverExpiresNextAttempt", stubLatency},
	{"internal/metrics/live_test.go TestSamplerWindows", spreadTimes},
	{"internal/orderer/virtualtime_test.go TestKafkaTimeoutCutInVirtualTime", spreadTimes},
	{"internal/raft/campaign_test.go TestRestartedCampaignerWaitsForTimeout", negativeWindow},
	{"internal/raft/campaign_test.go TestRestartedCampaignerWaitsForTimeout", negativeWindow},
	{"internal/simcpu/simcpu_test.go TestSleepPoolsEveryTimer", "lets a timer fire unreceived, which no condition shows"},
	{"internal/simtest/virtualtime_test.go TestUntilInVirtualTime", "turns a condition true at a set instant"},
	{"internal/transport/transport_test.go TestCallWithinNeverEndsEarly", stubLatency},
}

// TestWaitsAreOnConditions parses every _test.go file of the module and
// fails on a for statement whose header reads the clock (time.Now,
// time.Since or time.Until), a hand-rolled deadline loop where
// simtest.Until is the one wait on a condition, and on each time.Sleep
// allowedSleeps does not list: a sleep followed by an assertion waits
// on a race, and the wait belongs on the asserted condition.
func TestWaitsAreOnConditions(t *testing.T) {
	const root = "../.."
	fset := token.NewFileSet()
	sleeps := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() && path != root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, decl := range file.Decls {
			at := filepath.ToSlash(rel) + " package level"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				at = filepath.ToSlash(rel) + " " + fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if timeCall(n, "Sleep") {
					sleeps[at]++
				}
				loop, ok := n.(*ast.ForStmt)
				if !ok {
					return true
				}
				for _, part := range []ast.Node{loop.Init, loop.Cond, loop.Post} {
					if part == nil {
						continue
					}
					ast.Inspect(part, func(n ast.Node) bool {
						if timeCall(n, "Now", "Since", "Until") {
							t.Errorf("%s: a for statement reads the clock; wait with simtest.Until", fset.Position(n.Pos()))
						}
						return true
					})
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]int{}
	for _, s := range allowedSleeps {
		allowed[s.at]++
	}
	total := 0
	for at, n := range sleeps {
		total += n
		if n > allowed[at] {
			t.Errorf("%s: %d time.Sleep calls, %d allowed; wait on a condition with simtest.Until", at, n, allowed[at])
		}
	}
	for at, n := range allowed {
		if sleeps[at] < n {
			t.Errorf("allowedSleeps lists %d sleeps in %s, which makes %d", n, at, sleeps[at])
		}
	}
	t.Logf("%d time.Sleep calls in test files", total)
}

// timeCall reports whether n calls one of the time package's functions
// names.
func timeCall(n ast.Node, names ...string) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "time" && slices.Contains(names, sel.Sel.Name)
}
