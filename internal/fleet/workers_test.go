package fleet

// MinTenantsPerWorker exposes the fan-out threshold to the external tests,
// so they can size a bank that is sure to step on worker goroutines.
const MinTenantsPerWorker = minTenantsPerWorker
