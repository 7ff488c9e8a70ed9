package optimize

// The reference loop and the op-for-op comparison, for the external
// test package, which can import zx for extraction-based inputs.
var (
	ReferencePeephole = referencePeephole
	SameOps           = sameOps
)
