package tensor

import (
	"sync"
	"sync/atomic"
)

// Cache-blocked GEMM in the Goto/BLIS style. One loop nest serves every
// packed product: the three matmul variants (NN, NT, TN), whose operand
// layouts differ only in their element strides, and convolution, which
// multiplies the same weight matrix into every sample of a batch.
//
// A call computes C_s = A @ B_s for samples s = 0..S-1 sharing one A:
//
//	pack all of A once, as k blocks (gemmKC deep) of row panels
//	  (gemmMR rows each, [kb][gemmMR])
//	split the work into units — one (sample, gemmNC-wide column block)
//	  each, cut further into row-panel chunks only when there are fewer
//	  of them than workers — and let up to maxWorkers goroutines claim
//	  units until none are left; per unit:
//	    for each k block:
//	      pack that block of B_s into panels of gemmNR contiguous columns
//	      run the register-tiled micro-kernel for every (row panel,
//	        column panel) pair against the packed A block
//
// B has two packers: a strided matrix (packB) and a CHW image read as its
// im2col matrix (ConvDims.packImage), so convolution never materialises
// the column matrix. Packing makes the micro-kernel's loads contiguous
// whatever the operand layout, and the gemmMR x gemmNR register tile keeps
// the C accumulators in registers across the whole k block. Ragged border
// tiles go through the same micro-kernel via a zero-padded stack tile. On
// amd64 the micro-kernel is four-wide SSE assembly (see gemm_amd64.s);
// elsewhere a pure-Go version with the same accumulation order is used.
//
// The packed A, the per-worker B blocks and the job itself come from
// sync.Pools, and the goroutines are started without closures, so a
// product allocates nothing once the pools are warm. Packs are never kept
// across calls: training and weight loads rewrite operands in place.
//
// Accumulation order over k is ascending everywhere — identical to the
// naive small-product kernels and independent of worker count, block
// boundaries, row grouping and batch size — so results are bitwise
// identical across batch sizes and parallelism settings. The cloud
// micro-batching layer relies on this to return the same predictions
// batched or not.

const (
	gemmMR = 4   // micro-tile rows (C rows resident in registers)
	gemmNR = 8   // micro-tile cols (two 4-wide vectors per C row)
	gemmKC = 64  // k extent of a packed B block
	gemmNC = 256 // column extent of a packed B block

	// gemmSmall is the multiply-add count below which the naive kernels
	// win: packing costs more than it saves once operands fit in L1, and
	// waking a second worker costs more than the product, so they run on
	// the calling goroutine.
	gemmSmall = 32 * 1024
)

// gemmJob is one blocked product: C_s = A @ B_s for every sample s.
type gemmJob struct {
	a         []float32 // A packed by packAll; kept (and regrown) across uses
	m, k, n   int
	mPad      int // m rounded up to whole row panels
	b         []float32
	bStep     int  // B_s starts at b[s*bStep]
	brs, bcs  int  // B_s(p,j) = b[s*bStep+p*brs+j*bcs] when !img
	img       bool // B_s is the im2col matrix of the CHW image at b[s*bStep:]
	dims      ConvDims
	out       []float32
	outStep   int // C_s is row-major [m,n] at out[s*outStep:]
	colBlocks int // gemmNC-wide column blocks per sample
	rowSplits int // row-panel chunks per (sample, column block)
	rowChunk  int // row panels per chunk
	units     int // samples * colBlocks * rowSplits
	next      atomic.Int64
	done      sync.WaitGroup
}

var gemmJobs = sync.Pool{New: func() any { return new(gemmJob) }}

// gemmWorkspace is one worker's packing buffers, grown to the largest
// product it has served.
type gemmWorkspace struct {
	b   []float32 // the packed B block, at most gemmKC x gemmNC
	idx []int32   // im2col source offsets (ConvDims.imageCols)
}

var workspaces = sync.Pool{New: func() any { return new(gemmWorkspace) }}

// gemmBlocked computes out[m,n] += A @ B where A(i,p) = a[i*ars+p*acs] and
// B(p,j) = b[p*brs+j*bcs]. out must be row-major [m,n] and zero-initialised
// (or hold a partial sum to accumulate onto).
func gemmBlocked(a []float32, ars, acs int, b []float32, brs, bcs int, out []float32, m, k, n int) {
	j := newGemmJob(a, ars, acs, m, k)
	j.b, j.brs, j.bcs = b, brs, bcs
	j.run(out, n, 1, 0, 0)
}

// newGemmJob takes a job from the pool and packs A into it.
func newGemmJob(a []float32, ars, acs, m, k int) *gemmJob {
	j := gemmJobs.Get().(*gemmJob)
	j.m, j.k = m, k
	j.mPad = (m + gemmMR - 1) / gemmMR * gemmMR
	if cap(j.a) < j.mPad*k {
		j.a = make([]float32, j.mPad*k)
	}
	j.a = j.a[:j.mPad*k]
	packAll(j.a, a, ars, acs, m, k, j.mPad)
	return j
}

// run computes every C_s += A @ B_s (C_s at out[s*outStep:], B_s at
// b[s*bStep:]) for samples s in [0,samples), then returns j to the pool.
func (j *gemmJob) run(out []float32, n, samples, bStep, outStep int) {
	j.n, j.out, j.bStep, j.outStep = n, out, bStep, outStep
	nPanels := j.mPad / gemmMR
	j.colBlocks = (n + gemmNC - 1) / gemmNC
	items := samples * j.colBlocks
	workers := maxWorkers
	j.rowChunk = max(nPanels, 1)
	if items > 0 && items < workers && nPanels > 1 {
		splits := min((workers+items-1)/items, nPanels)
		j.rowChunk = (nPanels + splits - 1) / splits
	}
	j.rowSplits = (nPanels + j.rowChunk - 1) / j.rowChunk
	j.units = items * j.rowSplits
	j.next.Store(0)
	if parts := min(workers, j.units); parts > 1 {
		j.runParallel(parts)
	} else {
		j.runPart()
	}
	j.b, j.out, j.img = nil, nil, false
	gemmJobs.Put(j)
}

// runPart claims units until none are left, packing B into a pooled block.
func (j *gemmJob) runPart() {
	ws := workspaces.Get().(*gemmWorkspace)
	if need := min(gemmKC, j.k) * ((min(gemmNC, j.n) + gemmNR - 1) / gemmNR * gemmNR); cap(ws.b) < need {
		ws.b = make([]float32, need)
	}
	nPanels := j.mPad / gemmMR
	for {
		u := int(j.next.Add(1) - 1)
		if u >= j.units {
			break
		}
		item, chunk := u/j.rowSplits, u%j.rowSplits
		p0 := chunk * j.rowChunk
		j.runUnit(ws, item/j.colBlocks, item%j.colBlocks, p0, min(p0+j.rowChunk, nPanels))
	}
	workspaces.Put(ws)
}

// runUnit computes row panels [p0,p1) of column block jb of sample s.
func (j *gemmJob) runUnit(ws *gemmWorkspace, s, jb, p0, p1 int) {
	m, k, n := j.m, j.k, j.n
	jc := jb * gemmNC
	nb := min(gemmNC, n-jc)
	nbPanels := (nb + gemmNR - 1) / gemmNR
	b := j.b[s*j.bStep:]
	out := j.out[s*j.outStep : s*j.outStep+m*n]
	if j.img {
		ws.idx = j.dims.imageCols(ws.idx, jc, nb, nbPanels*gemmNR)
	}
	bb := ws.b[:cap(ws.b)]
	for pc := 0; pc < k; pc += gemmKC {
		kb := min(gemmKC, k-pc)
		if j.img {
			j.dims.packImage(bb, b, ws.idx, pc, kb)
		} else {
			packB(bb, b, j.brs, j.bcs, pc, kb, jc, nb)
		}
		aBlock := j.a[pc*j.mPad:]
		for pi := p0; pi < p1; pi++ {
			ap := aBlock[pi*kb*gemmMR:]
			i0 := pi * gemmMR
			rows := min(gemmMR, m-i0)
			c := out[i0*n+jc:]
			for jp := 0; jp < nbPanels; jp++ {
				j0 := jp * gemmNR
				bp := bb[j0*kb:]
				if cols := min(gemmNR, nb-j0); rows == gemmMR && cols == gemmNR {
					micro4x8(&ap[0], &bp[0], kb, &c[j0], n)
				} else {
					microRagged(&ap[0], &bp[0], kb, c[j0:], n, rows, cols)
				}
			}
		}
	}
}

// microRagged runs micro4x8 on a border tile of rows x cols: the valid part
// of C goes through a stack tile with row stride gemmNR. The packs are
// zero-padded, so each valid element sees the same ascending-k
// mul-then-add sequence as in a full tile.
func microRagged(ap, bp *float32, kb int, c []float32, ldc, rows, cols int) {
	var t [gemmMR * gemmNR]float32
	for r := 0; r < rows; r++ {
		copy(t[r*gemmNR:r*gemmNR+cols], c[r*ldc:r*ldc+cols])
	}
	micro4x8(ap, bp, kb, &t[0], gemmNR)
	for r := 0; r < rows; r++ {
		copy(c[r*ldc:r*ldc+cols], t[r*gemmNR:r*gemmNR+cols])
	}
}

// packAll packs the whole of A: k block pc holds mPad/gemmMR row panels
// of [kb][gemmMR] starting at dst[pc*mPad].
func packAll(dst, a []float32, ars, acs, m, k, mPad int) {
	for pc := 0; pc < k; pc += gemmKC {
		kb := min(gemmKC, k-pc)
		blk := dst[pc*mPad:]
		for i0 := 0; i0 < m; i0 += gemmMR {
			packA(blk[i0*kb:], a, ars, acs, i0, min(gemmMR, m-i0), pc, kb)
		}
	}
}

// packA interleaves an A panel of `rows` rows and kb columns into dst as
// [kb][gemmMR], zero-padding missing rows so the micro-kernel never
// branches on row count mid-loop.
func packA(dst, a []float32, ars, acs int, i0, rows, p0, kb int) {
	if rows == gemmMR {
		a0, a1, a2, a3 := a[i0*ars:], a[(i0+1)*ars:], a[(i0+2)*ars:], a[(i0+3)*ars:]
		for p := 0; p < kb; p++ {
			q := (p0 + p) * acs
			d := (*[gemmMR]float32)(dst[p*gemmMR:])
			d[0], d[1], d[2], d[3] = a0[q], a1[q], a2[q], a3[q]
		}
		return
	}
	for p := 0; p < kb; p++ {
		base := (p0 + p) * acs
		d := dst[p*gemmMR : p*gemmMR+gemmMR]
		for r := 0; r < rows; r++ {
			d[r] = a[(i0+r)*ars+base]
		}
		for r := rows; r < gemmMR; r++ {
			d[r] = 0
		}
	}
}

// packB lays a kb x nb block of B out as ceil(nb/gemmNR) panels, each
// [kb][gemmNR], zero-padding the ragged final panel.
func packB(dst, b []float32, brs, bcs int, p0, kb, j0, nb int) {
	nPanels := (nb + gemmNR - 1) / gemmNR
	for jp := 0; jp < nPanels; jp++ {
		cols := min(gemmNR, nb-jp*gemmNR)
		panel := dst[jp*kb*gemmNR:]
		for p := 0; p < kb; p++ {
			base := (p0+p)*brs + (j0+jp*gemmNR)*bcs
			d := panel[p*gemmNR : p*gemmNR+gemmNR]
			if cols == gemmNR && bcs == 1 {
				*(*[gemmNR]float32)(d) = *(*[gemmNR]float32)(b[base:])
				continue
			}
			for c := 0; c < cols; c++ {
				d[c] = b[base+c*bcs]
			}
			for c := cols; c < gemmNR; c++ {
				d[c] = 0
			}
		}
	}
}
