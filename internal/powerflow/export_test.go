package powerflow

// DenseReference returns opts with Newton-Raphson forced onto the dense
// partial-pivot elimination: the reference the differential tests check the
// sparse engine against.
func DenseReference(opts Options) Options {
	opts.denseReference = true
	return opts
}
