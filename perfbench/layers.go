package main

import (
	"fmt"
	"sort"
	"strings"
)

// families attributes each experiment's points to the physics layer that
// does their work. Point walls are summed per family, so every registered
// experiment must appear exactly once: checkLayerMap fails the run when an
// experiment is added without a family, or a listed one is gone.
var families = map[string][]string{
	"circuit":  {"fig9", "fig10", "ablation-sizing"},
	"core":     {"fig12", "ablation-policies", "ablation-schedule", "ablation-rebalance", "variation"},
	"scenario": {"decoder", "dnnmem", "multiplier"},
	"em":       {"fig5", "fig6", "fig7", "ablation-em-freq"},
	"bti":      {"table1", "fig4", "ablation-bti-cond"},
}

// familyNames lists the families in a fixed order.
var familyNames = []string{"circuit", "core", "scenario", "em", "bti"}

// layerOf inverts a family map, reporting ids listed under two families.
func layerOf(fams map[string][]string) (map[string]string, error) {
	out := make(map[string]string)
	for fam, ids := range fams {
		for _, id := range ids {
			if prev, ok := out[id]; ok {
				return nil, fmt.Errorf("experiment %q is listed under both %s and %s", id, prev, fam)
			}
			out[id] = fam
		}
	}
	return out, nil
}

// checkLayerMap verifies that every id in registered maps to exactly one
// family and that the map names no id outside registered.
func checkLayerMap(registered []string, fams map[string][]string) (map[string]string, error) {
	of, err := layerOf(fams)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(registered))
	var unmapped, stale []string
	for _, id := range registered {
		known[id] = true
		if _, ok := of[id]; !ok {
			unmapped = append(unmapped, id)
		}
	}
	for id := range of {
		if !known[id] {
			stale = append(stale, id)
		}
	}
	sort.Strings(stale)
	if len(unmapped) > 0 || len(stale) > 0 {
		return nil, fmt.Errorf("layer map out of date: unmapped experiments [%s], stale entries [%s]",
			strings.Join(unmapped, " "), strings.Join(stale, " "))
	}
	return of, nil
}
