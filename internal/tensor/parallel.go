package tensor

import "runtime"

// maxWorkers bounds the goroutine fan-out of parallel kernels. It defaults
// to GOMAXPROCS and can be lowered for deterministic single-threaded runs.
var maxWorkers = runtime.GOMAXPROCS(0)

// SetParallelism sets the number of worker goroutines used by parallel
// kernels (matmul, convolution). Values < 1 reset to GOMAXPROCS.
// It is intended for test setup and benchmarking, not concurrent use.
func SetParallelism(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	maxWorkers = n
}

// Parallelism reports the current worker count used by parallel kernels.
func Parallelism() int { return maxWorkers }

// taskq hands GEMM jobs to the helper goroutines runParallel starts. Each
// send is paired with exactly one runTask goroutine, so a send never waits
// for a receiver that does not exist, whichever call's helper takes it.
// The buffer lets a caller hand out its parts and start on its own without
// waiting for the helpers to be scheduled; 256 covers any worker count in
// use, and a fuller queue only delays the sender.
var taskq = make(chan *gemmJob, 256)

// runTask helps one queued job. It takes no arguments, so starting it with
// `go` allocates no closure.
func runTask() {
	j := <-taskq
	j.runPart()
	j.done.Done()
}

// runParallel runs j.runPart on the calling goroutine and on workers-1
// short-lived goroutines, and returns when all have finished.
func (j *gemmJob) runParallel(workers int) {
	j.done.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go runTask()
		taskq <- j
	}
	j.runPart()
	j.done.Wait()
}
