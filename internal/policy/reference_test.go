package policy

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// refHas is the map-backed membership test PrincipalSet.Has replaced:
// an exact hit first, then the wildcard scan.
func refHas(ids []string, principal string) bool {
	set := make(map[string]struct{}, len(ids))
	for _, id := range ids {
		set[id] = struct{}{}
	}
	if _, ok := set[principal]; ok {
		return true
	}
	for id := range set {
		if Matches(principal, id) {
			return true
		}
	}
	return false
}

// refSatisfied evaluates a policy tree through refHas.
func refSatisfied(p Policy, ids []string) bool {
	switch n := p.(type) {
	case *signedBy:
		return refHas(ids, n.principal)
	case *outOf:
		if len(n.subs) == 0 {
			return false
		}
		satisfied := 0
		for _, sub := range n.subs {
			if refSatisfied(sub, ids) {
				satisfied++
			}
		}
		return satisfied >= n.k
	}
	panic("unknown policy node")
}

// refPrincipals recomputes a tree's distinct sorted principals on every
// call, as Principals did before it was computed at construction.
func refPrincipals(p Policy) []string {
	switch n := p.(type) {
	case *signedBy:
		return []string{n.principal}
	case *outOf:
		seen := make(map[string]struct{})
		var out []string
		for _, sub := range n.subs {
			for _, pr := range refPrincipals(sub) {
				if _, ok := seen[pr]; !ok {
					seen[pr] = struct{}{}
					out = append(out, pr)
				}
			}
		}
		sort.Strings(out)
		return out
	}
	panic("unknown policy node")
}

// refMinEndorsements recomputes a tree's minimum endorsement count on
// every call.
func refMinEndorsements(p Policy) int {
	switch n := p.(type) {
	case *signedBy:
		return 1
	case *outOf:
		if len(n.subs) == 0 || n.k <= 0 {
			return 0
		}
		mins := make([]int, 0, len(n.subs))
		for _, sub := range n.subs {
			mins = append(mins, refMinEndorsements(sub))
		}
		sort.Ints(mins)
		k := min(n.k, len(mins))
		total := 0
		for _, m := range mins[:k] {
			total += m
		}
		return total
	}
	panic("unknown policy node")
}

// TestPolicyMatchesReference checks Satisfied, Principals and
// MinEndorsements against the recomputing, map-backed references on
// random policy trees over identities, org wildcards and bare orgs,
// for every subset of six endorsers (which also mix in wildcards).
func TestPolicyMatchesReference(t *testing.T) {
	principals := []string{"Org1.peer0", "Org1.peer1", "Org2.peer0", "Org3.peer0", "Org1.*", "Org2", "Org10.peer0", "Org3.*"}
	endorsers := []string{"Org1.peer0", "Org1.peer1", "Org2.peer1", "Org10.peer0", "Org3.*", "Org2"}
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 2000; trial++ {
		pol := randomPolicy(rng, principals, 3)
		if got, want := pol.Principals(), refPrincipals(pol); !slices.Equal(got, want) {
			t.Fatalf("%s: Principals = %v, reference %v", pol, got, want)
		}
		if got, want := pol.MinEndorsements(), refMinEndorsements(pol); got != want {
			t.Fatalf("%s: MinEndorsements = %d, reference %d", pol, got, want)
		}
		for mask := 0; mask < 1<<len(endorsers); mask++ {
			var ids []string
			for i, id := range endorsers {
				if mask&(1<<i) != 0 {
					ids = append(ids, id)
				}
			}
			set := NewPrincipalSet(ids...)
			for _, pr := range principals {
				if got, want := set.Has(pr), refHas(ids, pr); got != want {
					t.Fatalf("%v.Has(%q) = %v, reference %v", ids, pr, got, want)
				}
			}
			if got, want := pol.Satisfied(set), refSatisfied(pol, ids); got != want {
				t.Fatalf("%s on %v: Satisfied = %v, reference %v", pol, ids, got, want)
			}
		}
	}
}

// TestSharedPolicyConcurrentUse evaluates one policy from eight
// goroutines, as every committer of a channel does; under -race it
// checks that the construction-time principal slices are only read.
func TestSharedPolicyConcurrentUse(t *testing.T) {
	pol := And(Or(SignedBy("Org1.*"), SignedBy("Org2.peer0")), OutOf(2, SignedBy("Org3"), SignedBy("Org4.peer0"), SignedBy("Org1.peer1")))
	want := refPrincipals(pol)
	set := NewPrincipalSet("Org1.peer1", "Org3.peer0")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !slices.Equal(pol.Principals(), want) || pol.MinEndorsements() != 3 || !pol.Satisfied(set) {
					t.Error("shared policy evaluated differently")
					return
				}
			}
		}()
	}
	wg.Wait()
}
