package plan

import "slices"

// Disable turns the named rewrite rules off for the statements p prepares
// from now on, so a test can compare their results with the plan compiled
// without them.
func Disable(p *GlobalPlan, names ...string) {
	for _, n := range names {
		if !slices.Contains(RuleNames(), n) {
			panic("plan: no rewrite rule " + n)
		}
		if p.disabled == nil {
			p.disabled = map[string]bool{}
		}
		p.disabled[n] = true
	}
}

// RuleNames lists the rewrite rules in the order they run.
func RuleNames() []string {
	names := make([]string, len(rules))
	for i, r := range rules {
		names[i] = r.name
	}
	return names
}
