// Package policy implements Fabric endorsement policies: rules that
// define the necessary and sufficient set of endorsements for a valid
// transaction. A rule combines principals (identities or org wildcards)
// with the Boolean operators AND, OR, and OutOf(k, ...).
package policy

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrEmpty is returned when a combinator has no sub-policies.
var ErrEmpty = errors.New("policy: empty combinator")

// Policy is a node of the endorsement-policy tree.
type Policy interface {
	// Satisfied reports whether the set of endorsing principals meets
	// the policy. Principal strings (e.g. "Org1.peer0") match exactly
	// and org wildcards are matched via the org prefix.
	Satisfied(endorsers PrincipalSet) bool
	// Principals returns the distinct principals the policy mentions,
	// sorted. The client uses this to pick endorsement targets. The
	// slice is computed once and shared by every caller: read-only.
	Principals() []string
	// MinEndorsements returns the minimum number of endorsements that
	// can possibly satisfy the policy.
	MinEndorsements() int
	// String renders the policy in the parser's input syntax.
	String() string
}

// PrincipalSet is the list of principals that endorsed a transaction.
// A transaction carries a handful of endorsements, so membership is a
// linear scan; duplicates are harmless.
type PrincipalSet []string

// NewPrincipalSet returns ids as a set, sharing their backing array.
func NewPrincipalSet(ids ...string) PrincipalSet { return PrincipalSet(ids) }

// Has reports whether any endorser in the set satisfies principal under
// Matches: exactly, or as a member of a wildcard ("Org.*" or bare
// "Org") principal's org.
func (s PrincipalSet) Has(principal string) bool {
	for _, id := range s {
		if Matches(principal, id) {
			return true
		}
	}
	return false
}

// Matches reports whether the endorser identity id satisfies one
// principal string: exactly ("Org1.peer0"), or as any member of the org
// for wildcard principals ("Org1.*" or bare "Org1"). This is the single
// matching rule shared by policy evaluation (PrincipalSet.Has) and the
// gateway's principal-to-endorser-replica routing.
func Matches(principal, id string) bool {
	if principal == id {
		return true
	}
	// An org wildcard principal ("Org1.*" or bare "Org1") is satisfied
	// by any endorser from that org.
	org, wildcard := strings.CutSuffix(principal, ".*")
	if !wildcard && !strings.Contains(principal, ".") {
		org, wildcard = principal, true
	}
	return wildcard && strings.HasPrefix(id, org+".")
}

// signedBy requires an endorsement from one principal.
type signedBy struct {
	principal  string
	principals []string // {principal}, returned by Principals
}

// SignedBy returns a policy satisfied by an endorsement from the given
// principal. A principal of the form "Org1.peer0" names one identity;
// "Org1.*" (or bare "Org1") matches any member of the org.
func SignedBy(principal string) Policy {
	return &signedBy{principal: principal, principals: []string{principal}}
}

func (p *signedBy) Satisfied(endorsers PrincipalSet) bool { return endorsers.Has(p.principal) }
func (p *signedBy) Principals() []string                  { return p.principals }
func (p *signedBy) MinEndorsements() int                  { return 1 }
func (p *signedBy) String() string                        { return "'" + p.principal + "'" }

// outOf requires k of the sub-policies to be satisfied. AND is OutOf(n)
// and OR is OutOf(1).
type outOf struct {
	k    int
	subs []Policy
	op   string // "AND", "OR", or "OutOf" for String()

	// Computed at construction: policy trees are immutable.
	principals      []string
	minEndorsements int
}

// And returns a policy satisfied only when every sub-policy is.
func And(subs ...Policy) Policy { return newOutOf(len(subs), subs, "AND") }

// Or returns a policy satisfied when at least one sub-policy is.
func Or(subs ...Policy) Policy { return newOutOf(1, subs, "OR") }

// OutOf returns a policy satisfied when at least k sub-policies are.
func OutOf(k int, subs ...Policy) Policy { return newOutOf(k, subs, "OutOf") }

func newOutOf(k int, subs []Policy, op string) *outOf {
	p := &outOf{k: k, subs: subs, op: op}
	p.principals = p.distinctPrincipals()
	p.minEndorsements = p.cheapestK()
	return p
}

func (p *outOf) Satisfied(endorsers PrincipalSet) bool {
	if len(p.subs) == 0 {
		return false
	}
	satisfied := 0
	for _, sub := range p.subs {
		if sub.Satisfied(endorsers) {
			satisfied++
			if satisfied >= p.k {
				return true
			}
		}
	}
	return satisfied >= p.k
}

func (p *outOf) Principals() []string { return p.principals }
func (p *outOf) MinEndorsements() int { return p.minEndorsements }

// distinctPrincipals merges the sub-policies' principals, sorted.
func (p *outOf) distinctPrincipals() []string {
	seen := make(map[string]struct{})
	var out []string
	for _, sub := range p.subs {
		for _, pr := range sub.Principals() {
			if _, ok := seen[pr]; !ok {
				seen[pr] = struct{}{}
				out = append(out, pr)
			}
		}
	}
	sort.Strings(out)
	return out
}

// cheapestK sums the k smallest sub-policy minimums.
func (p *outOf) cheapestK() int {
	if len(p.subs) == 0 || p.k <= 0 {
		return 0
	}
	mins := make([]int, 0, len(p.subs))
	for _, sub := range p.subs {
		mins = append(mins, sub.MinEndorsements())
	}
	sort.Ints(mins)
	k := p.k
	if k > len(mins) {
		k = len(mins)
	}
	total := 0
	for _, m := range mins[:k] {
		total += m
	}
	return total
}

func (p *outOf) String() string {
	parts := make([]string, 0, len(p.subs)+1)
	if p.op == "OutOf" {
		parts = append(parts, fmt.Sprintf("%d", p.k))
	}
	for _, sub := range p.subs {
		parts = append(parts, sub.String())
	}
	return p.op + "(" + strings.Join(parts, ",") + ")"
}

// Validate checks structural sanity of a policy tree: combinators are
// non-empty and OutOf thresholds are within range.
func Validate(p Policy) error {
	switch n := p.(type) {
	case *signedBy:
		if n.principal == "" {
			return errors.New("policy: empty principal")
		}
		return nil
	case *outOf:
		if len(n.subs) == 0 {
			return ErrEmpty
		}
		if n.k < 1 || n.k > len(n.subs) {
			return fmt.Errorf("policy: OutOf threshold %d outside [1,%d]", n.k, len(n.subs))
		}
		for _, sub := range n.subs {
			if err := Validate(sub); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("policy: unknown node type %T", p)
	}
}
