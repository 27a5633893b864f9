package experiments

import (
	"fmt"
	"sort"
)

// Runner executes one reproduced table or figure at a scale.
type Runner func(s Scale) (*Report, error)

// Registry maps experiment ids to runners, in the paper's order.
var Registry = map[string]Runner{
	"table1": Table1,
	"table2": Table2,
	"fig3":   func(s Scale) (*Report, error) { return Fig3() },
	"fig4":   Fig4,
	"fig6":   Fig6,
	"fig7":   Fig7,
	"fig8":   Fig8,
	"fig9":   Fig9,
	"fig10":  Fig10,
	"fig11":  Fig11,
	"fig12a": Fig12a,
	"fig12b": Fig12b,
	"fig13":  Fig13,
	"fig14":  Fig14,
	// Extra ablations beyond the paper's artefacts (TestAblationCombineRuns).
	"ablation-combine": AblationCombine,
}

// Order lists experiment ids in presentation order.
var Order = []string{
	"table1", "table2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12a", "fig12b", "fig13", "fig14",
}

// Run executes one experiment by id.
func Run(id string, s Scale) (*Report, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, knownIDs())
	}
	return r(s)
}

func knownIDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
