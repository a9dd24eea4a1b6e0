package tensor

import (
	"runtime"
	"sync"
)

// maxWorkers bounds the goroutine fan-out of parallel kernels. It defaults
// to GOMAXPROCS.
var maxWorkers = runtime.GOMAXPROCS(0)

// SetParallelism sets the number of worker goroutines used by parallel
// kernels (matmul, convolution forward and backward). Values < 1 reset to
// GOMAXPROCS. Results are bitwise identical at every setting — workers
// split outputs, never a sum — so it changes speed only. It is intended
// for test setup and benchmarking, not concurrent use.
func SetParallelism(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	maxWorkers = n
}

// Parallelism reports the current worker count used by parallel kernels.
func Parallelism() int { return maxWorkers }

// parallelJob is work that several goroutines share by claiming parts of
// it until none are left.
type parallelJob interface {
	runPart()
	group() *sync.WaitGroup
}

// taskq hands jobs to the helper goroutines runParallel starts. Each send
// is paired with exactly one runTask goroutine, so a send never waits for
// a receiver that does not exist, whichever call's helper takes it. The
// buffer lets a caller hand out its parts and start on its own without
// waiting for the helpers to be scheduled; 256 covers any worker count in
// use, and a fuller queue only delays the sender.
var taskq = make(chan parallelJob, 256)

// runTask helps one queued job. It takes no arguments, so starting it with
// `go` allocates no closure.
func runTask() {
	j := <-taskq
	j.runPart()
	j.group().Done()
}

// runParallel runs j.runPart on the calling goroutine and on workers-1
// short-lived goroutines, and returns when all have finished.
func runParallel(j parallelJob, workers int) {
	wg := j.group()
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go runTask()
		taskq <- j
	}
	j.runPart()
	wg.Wait()
}
