package codeplan

// KernelMultiplies is the number of multiplies per byte offset that one
// execution's kernel calls perform: rows × sources summed over the groups,
// zero coefficients inside a group's shared source list included.
func (p *Plan) KernelMultiplies() int {
	n := 0
	for _, g := range p.groups {
		d, s := g.Size()
		n += d * s
	}
	return n
}
