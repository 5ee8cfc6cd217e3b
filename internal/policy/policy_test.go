package policy

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSignedBy(t *testing.T) {
	p := SignedBy("Org1.peer0")
	if !p.Satisfied(NewPrincipalSet("Org1.peer0")) {
		t.Error("exact principal not satisfied")
	}
	if p.Satisfied(NewPrincipalSet("Org2.peer0")) {
		t.Error("wrong principal satisfied")
	}
	if p.MinEndorsements() != 1 {
		t.Errorf("MinEndorsements = %d", p.MinEndorsements())
	}
}

func TestOrgWildcard(t *testing.T) {
	p := SignedBy("Org1.*")
	if !p.Satisfied(NewPrincipalSet("Org1.peer7")) {
		t.Error("wildcard did not match org member")
	}
	if p.Satisfied(NewPrincipalSet("Org10.peer0")) {
		t.Error("wildcard matched wrong org (prefix confusion)")
	}
	bare := SignedBy("Org1")
	if !bare.Satisfied(NewPrincipalSet("Org1.peer0")) {
		t.Error("bare org principal did not match member")
	}
}

func TestAndOr(t *testing.T) {
	and := And(SignedBy("a.p"), SignedBy("b.p"))
	or := Or(SignedBy("a.p"), SignedBy("b.p"))

	both := NewPrincipalSet("a.p", "b.p")
	onlyA := NewPrincipalSet("a.p")
	neither := NewPrincipalSet("c.p")

	if !and.Satisfied(both) || and.Satisfied(onlyA) || and.Satisfied(neither) {
		t.Error("AND evaluation wrong")
	}
	if !or.Satisfied(both) || !or.Satisfied(onlyA) || or.Satisfied(neither) {
		t.Error("OR evaluation wrong")
	}
	if and.MinEndorsements() != 2 || or.MinEndorsements() != 1 {
		t.Error("MinEndorsements wrong")
	}
}

func TestOutOf(t *testing.T) {
	p := OutOf(2, SignedBy("a.p"), SignedBy("b.p"), SignedBy("c.p"))
	if p.Satisfied(NewPrincipalSet("a.p")) {
		t.Error("1 of 3 satisfied OutOf(2)")
	}
	if !p.Satisfied(NewPrincipalSet("a.p", "c.p")) {
		t.Error("2 of 3 did not satisfy OutOf(2)")
	}
	if p.MinEndorsements() != 2 {
		t.Errorf("MinEndorsements = %d", p.MinEndorsements())
	}
}

func TestNestedPolicy(t *testing.T) {
	// AND(Org1, OR(Org2, Org3)) — classic two-of-three-orgs shape.
	p := And(SignedBy("Org1.*"), Or(SignedBy("Org2.*"), SignedBy("Org3.*")))
	if !p.Satisfied(NewPrincipalSet("Org1.peer0", "Org3.peer0")) {
		t.Error("nested policy not satisfied")
	}
	if p.Satisfied(NewPrincipalSet("Org2.peer0", "Org3.peer0")) {
		t.Error("nested policy satisfied without Org1")
	}
}

func TestPrincipalsSortedDistinct(t *testing.T) {
	p := Or(SignedBy("b.p"), SignedBy("a.p"), SignedBy("b.p"))
	got := p.Principals()
	if len(got) != 2 || got[0] != "a.p" || got[1] != "b.p" {
		t.Errorf("Principals = %v", got)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(And()); err == nil {
		t.Error("empty AND accepted")
	}
	if err := Validate(OutOf(4, SignedBy("a.p"))); err == nil {
		t.Error("threshold beyond subs accepted")
	}
	if err := Validate(SignedBy("")); err == nil {
		t.Error("empty principal accepted")
	}
	if err := Validate(And(SignedBy("a.p"), Or(SignedBy("b.p")))); err != nil {
		t.Errorf("valid nested policy rejected: %v", err)
	}
}

// Property: OutOf(1, subs...) ≡ Or(subs...) and OutOf(n, subs...) ≡
// And(subs...) for every endorser set.
func TestOutOfEquivalenceProperty(t *testing.T) {
	principals := []string{"a.p", "b.p", "c.p", "d.p", "e.p"}
	f := func(mask uint8, n uint8) bool {
		k := int(n%4) + 1 // 1..4 subs
		subs := make([]Policy, 0, k)
		for i := 0; i < k; i++ {
			subs = append(subs, SignedBy(principals[i]))
		}
		var ids []string
		for i, pr := range principals {
			if mask&(1<<i) != 0 {
				ids = append(ids, pr)
			}
		}
		set := NewPrincipalSet(ids...)
		orEq := OutOf(1, subs...).Satisfied(set) == Or(subs...).Satisfied(set)
		andEq := OutOf(len(subs), subs...).Satisfied(set) == And(subs...).Satisfied(set)
		return orEq && andEq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: satisfaction is monotone — adding endorsers never
// unsatisfies a policy.
func TestMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	principals := []string{"a.p", "b.p", "c.p", "d.p", "e.p", "f.p"}
	for trial := 0; trial < 300; trial++ {
		pol := randomPolicy(rng, principals, 3)
		var order []string
		for _, pr := range principals {
			if rng.Intn(2) == 0 {
				order = append(order, pr)
			}
		}
		prev := pol.Satisfied(NewPrincipalSet())
		for i, pr := range order {
			cur := pol.Satisfied(NewPrincipalSet(order[:i+1]...))
			if prev && !cur {
				t.Fatalf("policy %s became unsatisfied after adding %s", pol, pr)
			}
			prev = cur
		}
	}
}

// Property: parse(p.String()) evaluates identically to p.
func TestParseStringRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	principals := []string{"Org1.peer0", "Org2.peer0", "Org3.peer0", "Org4.peer0"}
	for trial := 0; trial < 300; trial++ {
		pol := randomPolicy(rng, principals, 3)
		parsed, err := Parse(pol.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", pol, err)
		}
		for mask := 0; mask < 1<<len(principals); mask++ {
			var ids []string
			for i, pr := range principals {
				if mask&(1<<i) != 0 {
					ids = append(ids, pr)
				}
			}
			set := NewPrincipalSet(ids...)
			if pol.Satisfied(set) != parsed.Satisfied(set) {
				t.Fatalf("policy %s differs from its re-parse on %v", pol, set)
			}
		}
	}
}

func randomPolicy(rng *rand.Rand, principals []string, depth int) Policy {
	if depth == 0 || rng.Intn(3) == 0 {
		return SignedBy(principals[rng.Intn(len(principals))])
	}
	n := rng.Intn(3) + 1
	subs := make([]Policy, 0, n)
	for i := 0; i < n; i++ {
		subs = append(subs, randomPolicy(rng, principals, depth-1))
	}
	switch rng.Intn(3) {
	case 0:
		return And(subs...)
	case 1:
		return Or(subs...)
	default:
		return OutOf(rng.Intn(n)+1, subs...)
	}
}

func TestMinEndorsementsNested(t *testing.T) {
	// OutOf(2, 'a', AND('b','c'), 'd') — cheapest satisfaction: a + d = 2.
	p := OutOf(2, SignedBy("a.p"), And(SignedBy("b.p"), SignedBy("c.p")), SignedBy("d.p"))
	if got := p.MinEndorsements(); got != 2 {
		t.Errorf("MinEndorsements = %d, want 2", got)
	}
}

func TestHelpers(t *testing.T) {
	or10 := OrOverPeers(10)
	if got := len(or10.Principals()); got != 10 {
		t.Errorf("OrOverPeers(10) principals = %d", got)
	}
	if or10.MinEndorsements() != 1 {
		t.Error("OrOverPeers min != 1")
	}
	and5 := AndOverPeers(5)
	if and5.MinEndorsements() != 5 {
		t.Error("AndOverPeers(5) min != 5")
	}
	for i := 1; i <= 5; i++ {
		want := fmt.Sprintf("Org%d.peer0", i)
		found := false
		for _, pr := range and5.Principals() {
			if pr == want {
				found = true
			}
		}
		if !found {
			t.Errorf("AndOverPeers missing %s", want)
		}
	}
}
