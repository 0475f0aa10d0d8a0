package mal

import (
	"slices"
	"strings"
)

// RegisteredOps lists r's operations as "module.op", sorted.
func RegisteredOps(r *Registry) []string {
	ops := make([]string, 0, len(r.ops))
	for k := range r.ops {
		ops = append(ops, k.module+"."+k.op)
	}
	slices.SortFunc(ops, strings.Compare)
	return ops
}
