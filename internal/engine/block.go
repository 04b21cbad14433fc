package engine

// BlockSpMV is an engine with the block product the block solver runs on:
// dsts[j] = A·srcs[j] over the engine's local rows for a whole batch,
// sharing one pass over the operator — and, on distributed backends, one
// halo-exchange round — across the batch. It stays outside Engine because
// only the gang reads it, on its base engine and never through a wrapper;
// blockcg.Solve takes a BlockSpMV, so every base has it.
type BlockSpMV interface {
	Engine
	SpMVBlock(dsts, srcs [][]float64)
}
