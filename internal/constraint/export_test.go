package constraint

// SetParallelMinsForTest lowers the thresholds that gate the parallel
// solve (the system edge count, the class size and regions per worker
// of the region fan-out, and the chunk size of the init pass), so tests
// can force the parallel path onto small systems. It returns a function
// restoring the previous values. Tests using it must not run with
// t.Parallel — the thresholds are package state.
func SetParallelMinsForTest(solveMin, classMin, regionMin, chunk int) func() {
	pSolve, pClass, pRegion, pChunk := parallelSolveMin, ccClassMin, ccRegionMin, chunkMin
	parallelSolveMin, ccClassMin, ccRegionMin, chunkMin = solveMin, classMin, regionMin, chunk
	return func() {
		parallelSolveMin, ccClassMin, ccRegionMin, chunkMin = pSolve, pClass, pRegion, pChunk
	}
}
