package tensor

import (
	"sync"
	"sync/atomic"
)

// Cache-blocked GEMM in the Goto/BLIS style. One loop nest serves every
// packed product: the three matmul variants (NN, NT, TN), whose operand
// layouts differ only in their element strides, the convolution forward,
// which multiplies the same weight matrix into every sample of a batch,
// and the two convolution backward products.
//
// A call computes, for outputs s = 0..S-1,
//
//	C_s += Σ_{t<T} A_t @ B_{s+t}
//
// in one of two shapes: many outputs sharing one A (T = 1: the forward and
// the input gradient Wᵀ @ dY_s), or one output summed over segments
// (S = 1: the weight gradient Σ_t dY_t @ cols_tᵀ, a GEMM over the
// concatenated k of all samples). It runs as
//
//	pack every A_t once, as k blocks (gemmKC deep) of row panels
//	  (gemmMR rows each, [kb][gemmMR])
//	split the work into units — one (output, column block) each, cut
//	  further into row-panel chunks only when there are fewer of them
//	  than workers — and let up to maxWorkers goroutines claim units
//	  until none are left; per unit, for each segment t and k block:
//	    pack that block of B_{s+t} into panels of gemmNR contiguous columns
//	    run the register-tiled micro-kernel for every (row panel,
//	      column panel) pair against the packed A block
//
// A summed product first narrows its column blocks to a multiple of the
// worker count, so each worker packs a disjoint part of B.
//
// B has two packers: a strided matrix (packB, with a fast path for a
// transposed operand) and a CHW image read as its im2col matrix
// (ConvDims.packImage), so the eval convolution never materialises the
// column matrix. Packing makes the micro-kernel's loads contiguous
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
// Every C element is one sequence of mul-then-adds in ascending k (segment
// by segment) onto its initial value — identical to the naive small-product
// kernels and independent of worker count, block boundaries, row grouping
// and batch size — so results are bitwise identical across batch sizes and
// parallelism settings. The cloud micro-batching layer relies on this to
// return the same predictions batched or not, and training on it to give
// the same weights on any core count.

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

// gemmJob is one blocked product: C_s += Σ_t A_t @ B_{s+t} for every
// output s.
type gemmJob struct {
	a         []float32 // every A_t packed by packAll; kept (and regrown) across uses
	m, k, n   int       // k is the depth of one segment
	mPad      int       // m rounded up to whole row panels
	segs      int       // segments T summed into each output
	b         []float32
	bStep     int  // B_i starts at b[i*bStep]
	brs, bcs  int  // B_i(p,j) = b[i*bStep+p*brs+j*bcs] when !img
	img       bool // B_i is the im2col matrix of the CHW image at b[i*bStep:]
	dims      ConvDims
	out       []float32
	outStep   int  // C_s is row-major [m,n] at out[s*outStep:]
	overwrite bool // C_s starts from zero instead of out's contents
	nc        int  // column extent of a unit, at most gemmNC
	colBlocks int  // nc-wide column blocks per output
	rowSplits int  // row-panel chunks per (output, column block)
	rowChunk  int  // row panels per chunk
	units     int  // outputs * colBlocks * rowSplits
	next      atomic.Int64
	done      sync.WaitGroup
}

var gemmJobs = sync.Pool{New: func() any { return new(gemmJob) }}

func (j *gemmJob) group() *sync.WaitGroup { return &j.done }

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
	j := newGemmJob(a, ars, acs, 0, m, k, 1)
	j.b, j.brs, j.bcs = b, brs, bcs
	j.run(out, n, 1, 0, 0)
}

// newGemmJob takes a job from the pool and packs into it the segs matrices
// A_t(i,p) = a[t*aStep+i*ars+p*acs], each m x k.
func newGemmJob(a []float32, ars, acs, aStep, m, k, segs int) *gemmJob {
	j := gemmJobs.Get().(*gemmJob)
	j.m, j.k, j.segs = m, k, segs
	j.mPad = (m + gemmMR - 1) / gemmMR * gemmMR
	seg := j.mPad * k
	if cap(j.a) < segs*seg {
		j.a = make([]float32, segs*seg)
	}
	j.a = j.a[:segs*seg]
	for t := 0; t < segs; t++ {
		packAll(j.a[t*seg:], a[t*aStep:], ars, acs, m, k, j.mPad)
	}
	return j
}

// run computes C_s += Σ_t A_t @ B_{s+t} (C_s at out[s*outStep:], B_i at
// b[i*bStep:]) for outputs s in [0,outputs), then returns j to the pool.
func (j *gemmJob) run(out []float32, n, outputs, bStep, outStep int) {
	j.n, j.out, j.bStep, j.outStep = n, out, bStep, outStep
	nPanels := j.mPad / gemmMR
	workers := maxWorkers
	j.nc = gemmNC
	if j.segs > 1 {
		// One summed output: cut its columns into a multiple of workers
		// blocks rather than its rows, so no two workers pack the same B.
		blocks := (n + gemmNC - 1) / gemmNC
		blocks = (blocks + workers - 1) / workers * workers
		j.nc = ((n+blocks-1)/blocks + gemmNR - 1) / gemmNR * gemmNR
	}
	j.colBlocks = (n + j.nc - 1) / j.nc
	items := outputs * j.colBlocks
	j.rowChunk = max(nPanels, 1)
	if items > 0 && items < workers && nPanels > 1 {
		splits := min((workers+items-1)/items, nPanels)
		j.rowChunk = (nPanels + splits - 1) / splits
	}
	j.rowSplits = (nPanels + j.rowChunk - 1) / j.rowChunk
	j.units = items * j.rowSplits
	j.next.Store(0)
	if parts := min(workers, j.units); parts > 1 {
		runParallel(j, parts)
	} else {
		j.runPart()
	}
	j.b, j.out, j.img, j.overwrite = nil, nil, false, false
	gemmJobs.Put(j)
}

// runPart claims units until none are left, packing B into a pooled block.
func (j *gemmJob) runPart() {
	ws := workspaces.Get().(*gemmWorkspace)
	if need := min(gemmKC, j.k) * ((min(j.nc, j.n) + gemmNR - 1) / gemmNR * gemmNR); cap(ws.b) < need {
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

// runUnit computes row panels [p0,p1) of column block jb of output s.
func (j *gemmJob) runUnit(ws *gemmWorkspace, s, jb, p0, p1 int) {
	m, k, n := j.m, j.k, j.n
	jc := jb * j.nc
	nb := min(j.nc, n-jc)
	nbPanels := (nb + gemmNR - 1) / gemmNR
	out := j.out[s*j.outStep : s*j.outStep+m*n]
	if j.overwrite {
		for i := p0 * gemmMR; i < min(p1*gemmMR, m); i++ {
			clear(out[i*n+jc : i*n+jc+nb])
		}
	}
	if j.img {
		ws.idx = j.dims.imageCols(ws.idx, jc, nb, nbPanels*gemmNR)
	}
	bb := ws.b[:cap(ws.b)]
	for t := 0; t < j.segs; t++ {
		b := j.b[(s+t)*j.bStep:]
		for pc := 0; pc < k; pc += gemmKC {
			kb := min(gemmKC, k-pc)
			if j.img {
				j.dims.packImage(bb, b, ws.idx, pc, kb)
			} else {
				packB(bb, b, j.brs, j.bcs, pc, kb, jc, nb)
			}
			aBlock := j.a[(t*k+pc)*j.mPad:]
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
// [kb][gemmNR], zero-padding the ragged final panel. A transposed operand
// (brs == 1) holds each panel column as a contiguous run of the source, so
// its panels are filled from gemmNR streams at once.
func packB(dst, b []float32, brs, bcs int, p0, kb, j0, nb int) {
	nPanels := (nb + gemmNR - 1) / gemmNR
	for jp := 0; jp < nPanels; jp++ {
		cols := min(gemmNR, nb-jp*gemmNR)
		panel := dst[jp*kb*gemmNR : (jp+1)*kb*gemmNR]
		if brs == 1 && cols == gemmNR {
			packColumns(panel, b[p0+(j0+jp*gemmNR)*bcs:], bcs, kb)
			continue
		}
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

// packColumns fills a whole [kb][gemmNR] panel whose column c is the
// contiguous run src[c*stride : c*stride+kb].
func packColumns(panel, src []float32, stride, kb int) {
	s0, s1 := src[:kb], src[stride:][:kb]
	s2, s3 := src[2*stride:][:kb], src[3*stride:][:kb]
	s4, s5 := src[4*stride:][:kb], src[5*stride:][:kb]
	s6, s7 := src[6*stride:][:kb], src[7*stride:][:kb]
	for p := range s0 {
		d := (*[gemmNR]float32)(panel[p*gemmNR:])
		d[0], d[1], d[2], d[3] = s0[p], s1[p], s2[p], s3[p]
		d[4], d[5], d[6], d[7] = s4[p], s5[p], s6[p], s7[p]
	}
}
