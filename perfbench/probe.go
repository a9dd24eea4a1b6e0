package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared, and the CPU time a fixed
// amount of work costs swings by a quarter or more within seconds as the
// host's other tenants come and go. So a probe runs beside each measured
// window: on each CPU the process may use, a thread pinned to that CPU
// times one unit of a fixed kernel every few milliseconds. The CPU metrics
// are scaled by how fast the probe ran over the same stretch of time, and
// the probe's own CPU is taken out of them. The kernel is the benchmark's,
// not the program's, so a change to the program does not move it.

// probeKernel is one unit of the reference work: a read-modify-write pass
// over a 2 MB float32 buffer, about a millisecond. The workloads stream
// their activations, im2col panels and garbage through the caches, and
// their CPU time follows the memory system's speed more closely than the
// core's. Of the kernels tried while building the benchmark (cache-resident
// float32 dot products, a 256 KB pass and this 2 MB pass), this one cut the
// run-to-run spread of tiered-loopback's CPU per image the most, and
// chain3-open's about as well as the others. The buffer lives outside the
// Go heap, so the probe does not move the heap metrics.
type probeKernel struct {
	mem  []byte
	buf  []float32
	sink float32
}

const probeFloats = 512 << 10 // 2 MB

func newProbeKernel() (*probeKernel, error) {
	mem, err := syscall.Mmap(-1, 0, 4*probeFloats, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe buffer: %w", err)
	}
	return &probeKernel{mem: mem, buf: unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), probeFloats)}, nil
}

func (k *probeKernel) free() { syscall.Munmap(k.mem) }

func (k *probeKernel) unit() {
	c := k.sink*1e-9 + 1
	for i := range k.buf {
		k.buf[i] = k.buf[i]*0.5 + c
	}
	k.sink = k.buf[len(k.buf)-1]
}

// probe is one kernel per CPU the process may use. cpus is nil when the
// probe cannot pin threads; it then runs one unpinned thread.
type probe struct {
	cpus    []int
	kernels []*probeKernel
}

func newProbe() (*probe, error) {
	p := &probe{cpus: allowedCPUs()}
	for range max(len(p.cpus), 1) {
		k, err := newProbeKernel()
		if err != nil {
			p.free()
			return nil, err
		}
		p.kernels = append(p.kernels, k)
	}
	return p, nil
}

func (p *probe) free() {
	for _, k := range p.kernels {
		k.free()
	}
}

// probePeriod is how often the probe runs a unit in all, spread over the
// CPUs: about 5% of a core.
const probePeriod = 20 * time.Millisecond

// probeRefMs is the CPU milliseconds one unit takes on the reference host
// the metrics are scaled to: on the 2-vCPU host the benchmark was built on,
// the median unit time over the 30 set-ups and 90 window parts of ten runs
// of each workload was 0.905 ms.
const probeRefMs = 0.9

// probeReading is one timed unit.
type probeReading struct {
	at  time.Duration // when it ended, on the drive clock
	ms  float64       // thread CPU milliseconds it took
	cpu int           // the CPU it was pinned to, or -1
}

// run times kernel units on every CPU until stop closes.
func (p *probe) run(clk clock, stop <-chan struct{}) []probeReading {
	outs := make([][]probeReading, len(p.kernels))
	period := time.Duration(len(p.kernels)) * probePeriod
	var wg sync.WaitGroup
	for i, k := range p.kernels {
		cpu := -1
		if p.cpus != nil {
			cpu = p.cpus[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = probeOn(clk, k, cpu, period, stop)
		}()
	}
	wg.Wait()
	var out []probeReading
	for _, o := range outs {
		out = append(out, o...)
	}
	return out
}

// probeOn times one unit every period on a thread pinned to cpu (-1: not
// pinned) until stop closes.
func probeOn(clk clock, k *probeKernel, cpu int, period time.Duration, stop <-chan struct{}) []probeReading {
	runtime.LockOSThread()
	// A pinned thread is not handed back to the Go scheduler: the goroutine
	// exits locked, and the runtime ends the thread with it.
	if cpu < 0 || !pinThread(cpu) {
		defer runtime.UnlockOSThread()
		cpu = -1
	}
	k.unit() // touch the operands
	tick := time.NewTicker(period)
	defer tick.Stop()
	var out []probeReading
	for {
		t0 := threadCPU()
		k.unit()
		out = append(out, probeReading{at: clk.now(), ms: ms(threadCPU() - t0), cpu: cpu})
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
	}
}

// cpuMask is a Linux CPU affinity mask.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs the process may run on, or nil if it cannot
// tell.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil
	}
	var cpus []int
	for i := range 64 * len(m) {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pinThread binds the calling thread to one CPU.
func pinThread(cpu int) bool {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return e == 0
}

// threadCPU is the calling thread's CPU time so far.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probeSpan summarises the readings that ended in [from, to): the mean
// over CPUs of each CPU's median unit time, and the CPU they took in all.
func probeSpan(rs []probeReading, from, to time.Duration) (unitMs, cpuMs float64) {
	perCPU := probePerCPU(rs, from, to)
	for _, u := range perCPU {
		unitMs += u / float64(len(perCPU))
	}
	for _, r := range rs {
		if r.at >= from && r.at < to {
			cpuMs += r.ms
		}
	}
	return unitMs, cpuMs
}

// probePerCPU is each CPU's median unit time over [from, to).
func probePerCPU(rs []probeReading, from, to time.Duration) map[int]float64 {
	units := make(map[int][]float64)
	for _, r := range rs {
		if r.at >= from && r.at < to {
			units[r.cpu] = append(units[r.cpu], r.ms)
		}
	}
	out := make(map[int]float64, len(units))
	for cpu, u := range units {
		out[cpu] = median(u)
	}
	return out
}
