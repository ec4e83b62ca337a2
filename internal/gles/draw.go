package gles

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"glescompute/internal/glsl"
	"glescompute/internal/raster"
	"glescompute/internal/shader"
)

// DrawArrays mirrors glDrawArrays. Supported modes: TRIANGLES,
// TRIANGLE_STRIP, TRIANGLE_FAN, POINTS. ES 2.0 has no quads — the paper's
// challenge #2 — so GPGPU full-screen geometry arrives as two triangles.
func (c *Context) DrawArrays(mode uint32, first, count int) {
	if first < 0 || count < 0 {
		c.setErr(INVALID_VALUE, "DrawArrays: negative first/count")
		return
	}
	indices := make([]int, count)
	for i := range indices {
		indices[i] = first + i
	}
	c.draw(mode, indices)
}

// DrawElements mirrors glDrawElements reading indices from the bound
// ELEMENT_ARRAY_BUFFER at the given byte offset.
func (c *Context) DrawElements(mode uint32, count int, typ uint32, offset int) {
	buf := c.boundBuffer(ELEMENT_ARRAY_BUFFER)
	if buf == nil {
		c.setErr(INVALID_OPERATION, "DrawElements: no ELEMENT_ARRAY_BUFFER bound")
		return
	}
	indices, ok := decodeIndices(buf.data, offset, count, typ)
	if !ok {
		c.setErr(INVALID_OPERATION, "DrawElements: index range out of bounds")
		return
	}
	c.draw(mode, indices)
}

// DrawElementsClient is the client-memory variant of glDrawElements.
func (c *Context) DrawElementsClient(mode uint32, typ uint32, data []byte) {
	count := 0
	switch typ {
	case UNSIGNED_BYTE:
		count = len(data)
	case UNSIGNED_SHORT:
		count = len(data) / 2
	default:
		c.setErr(INVALID_ENUM, "DrawElements: bad index type 0x%04x", typ)
		return
	}
	indices, _ := decodeIndices(data, 0, count, typ)
	c.draw(mode, indices)
}

func decodeIndices(data []byte, offset, count int, typ uint32) ([]int, bool) {
	out := make([]int, count)
	switch typ {
	case UNSIGNED_BYTE:
		if offset+count > len(data) {
			return nil, false
		}
		for i := 0; i < count; i++ {
			out[i] = int(data[offset+i])
		}
	case UNSIGNED_SHORT:
		if offset+count*2 > len(data) {
			return nil, false
		}
		for i := 0; i < count; i++ {
			out[i] = int(binary.LittleEndian.Uint16(data[offset+i*2:]))
		}
	default:
		return nil, false
	}
	return out, true
}

// draw runs the full pipeline for the given vertex indices.
func (c *Context) draw(mode uint32, indices []int) {
	if c.fault != nil {
		if _, ok := c.faultEnter(FaultOpDraw); !ok {
			return
		}
	}
	switch mode {
	case TRIANGLES, TRIANGLE_STRIP, TRIANGLE_FAN, POINTS:
	case LINES, LINE_STRIP, LINE_LOOP:
		c.setErr(INVALID_OPERATION, "draw: line primitives are not implemented by this simulator (GPGPU never uses them); use triangles")
		return
	default:
		c.setErr(INVALID_ENUM, "draw: bad mode 0x%04x", mode)
		return
	}
	p := c.programs[c.current]
	if p == nil || !p.linked {
		c.setErr(INVALID_OPERATION, "draw: no linked program in use")
		return
	}
	fb := c.currentFB()
	if !fb.isDefault {
		if status := c.CheckFramebufferStatus(FRAMEBUFFER); status != FRAMEBUFFER_COMPLETE {
			c.setErr(INVALID_FRAMEBUFFER_OPERATION, "draw: framebuffer incomplete (0x%04x)", status)
			return
		}
	}
	colorData, fbW, fbH, ok := c.colorTarget(fb)
	if !ok {
		c.setErr(INVALID_FRAMEBUFFER_OPERATION, "draw: no color target")
		return
	}
	// Rendering into a texture that is simultaneously sampled is undefined
	// in GL; it is allowed here (and produces coherent-but-unspecified
	// ordering on real hardware): a fragment sees the texels as they were
	// before its own 16-fragment group was written. The paper's runtime
	// never does it.
	c.sampler.resolve(c)

	stats := DrawStats{DrawCalls: 1}

	// ---- Vertex stage, in groups of up to the executor's lane width ----
	vex := c.executor(p.vsProg, p.vsCode, &p.vsVM)
	c.pushUniforms(p, vex, p.vsProg)
	if err := vex.InitGlobals(); err != nil {
		c.setErr(INVALID_OPERATION, "draw: vertex shader init failed: %v", err)
		return
	}
	shaded := make([]raster.ShadedVertex, len(indices))
	pointSizes := make([]float32, len(indices))
	lanes := vex.Lanes()
	var flat [16]float32
	for base := 0; base < len(indices); base += lanes {
		n := minInt(lanes, len(indices)-base)
		for l := 0; l < n; l++ {
			for _, a := range p.vsProg.Attributes {
				loc := p.attribLocs[a.Name]
				// An out-of-range fetch (vertex beyond the array, or no
				// backing store) deliberately yields (0,0,0,1) instead of
				// an error: ES 2.0 makes reads past a client array
				// undefined, and this simulator pins them to
				// robust-buffer-access-style zero-fill
				// (TestFetchAttribOutOfRangeZeroFill).
				size := a.DeclType.ComponentCount()
				if attribSpan(a.DeclType) == 1 {
					v4, _ := c.fetchAttrib(loc, indices[base+l])
					copy(flat[:size], v4[:])
				} else {
					dim := a.DeclType.MatrixDim()
					for col := 0; col < dim; col++ {
						v4, _ := c.fetchAttrib(loc+col, indices[base+l])
						copy(flat[col*dim:col*dim+dim], v4[:dim])
					}
				}
				vex.SetGlobalFlat(l, a, flat[:size])
			}
		}
		if _, err := vex.Run(n); err != nil {
			c.setErr(INVALID_OPERATION, "draw: vertex shader failed: %v", err)
			return
		}
		for l := 0; l < n; l++ {
			sv := raster.ShadedVertex{
				Pos:      vex.Position(l),
				Varyings: make([]float32, p.varyComps),
			}
			for _, link := range p.varyings {
				vex.ReadGlobalFlat(l, link.vsDecl, sv.Varyings[link.offset:link.offset+link.comps])
			}
			shaded[base+l] = sv
			pointSizes[base+l] = vex.PointSize(l)
		}
	}
	stats.VertexInvocations = uint64(len(indices))
	stats.VertexStats = *vex.StatsRef()
	c.countDispatches(vex)

	// ---- Primitive assembly ----
	var tris [][3]raster.ShadedVertex
	var pts []raster.ShadedVertex
	switch mode {
	case TRIANGLES:
		for i := 0; i+2 < len(shaded); i += 3 {
			tris = append(tris, [3]raster.ShadedVertex{shaded[i], shaded[i+1], shaded[i+2]})
		}
	case TRIANGLE_STRIP:
		for i := 0; i+2 < len(shaded); i++ {
			if i%2 == 0 {
				tris = append(tris, [3]raster.ShadedVertex{shaded[i], shaded[i+1], shaded[i+2]})
			} else {
				tris = append(tris, [3]raster.ShadedVertex{shaded[i+1], shaded[i], shaded[i+2]})
			}
		}
	case TRIANGLE_FAN:
		for i := 1; i+1 < len(shaded); i++ {
			tris = append(tris, [3]raster.ShadedVertex{shaded[0], shaded[i], shaded[i+1]})
		}
	case POINTS:
		pts = shaded
	}

	frontCCW := c.frontFace == CCW

	// Face culling is view-independent: resolve it once here instead of
	// per tile.
	if c.cullOn {
		kept := tris[:0]
		for _, t := range tris {
			if !c.cullTriangle(t, frontCCW) {
				kept = append(kept, t)
			}
		}
		tris = kept
	}

	// ---- Fragment stage, parallel over framebuffer tiles ----
	//
	// The framebuffer is cut into a grid of square tiles claimed by a
	// fixed pool of workers through an atomic counter. Output is
	// bit-identical to the sequential path regardless of worker count or
	// tile size: a pixel belongs to exactly one tile, each tile scans the
	// draw's primitives in submission order (so depth/blend sequencing per
	// pixel matches), and the per-worker stats are commutative sums
	// (DESIGN.md §6h). Each worker shades a tile's fragments of one
	// primitive in groups of up to 16 (DESIGN.md §6k).
	vp := raster.Viewport{X: c.viewport[0], Y: c.viewport[1], W: c.viewport[2], H: c.viewport[3]}
	dr := &drawRun{c: c, p: p, tris: tris, pts: pts, pointSizes: pointSizes, frontCCW: frontCCW,
		colorData: colorData, depthData: c.depthTarget(fb), fbW: fbW, fbH: fbH}

	ts := c.tileSize
	tilesX := (fbW + ts - 1) / ts
	tilesY := (fbH + ts - 1) / ts
	nTiles := tilesX * tilesY

	workers := max(minInt(c.workers, nTiles), 1)
	for len(p.frags) < workers {
		p.frags = append(p.frags, &fragWorker{})
	}
	for _, fw := range p.frags[:workers] {
		fw.begin(dr, vp)
	}
	if workers == 1 {
		// Sequential reference path: one worker scanning the whole
		// framebuffer — the baseline the tiled path is validated against.
		fw := p.frags[0]
		if fw.err == nil {
			fw.region()
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, fw := range p.frags[:workers] {
			wg.Add(1)
			go func(fw *fragWorker) {
				defer wg.Done()
				for fw.err == nil {
					t := int(next.Add(1)) - 1
					if t >= nTiles {
						break
					}
					x0 := (t % tilesX) * ts
					y0 := (t / tilesX) * ts
					fw.rz.SetTile(x0, y0, minInt(x0+ts, fbW), minInt(y0+ts, fbH))
					fw.region()
				}
			}(fw)
		}
		wg.Wait()
	}
	// Merge in fixed worker-index order. The tile→worker assignment is
	// nondeterministic, but every counter is a commutative sum, so the
	// merged totals (and the framebuffer, whose tiles are disjoint) are
	// not affected by it.
	var failed *fragWorker
	for _, fw := range p.frags[:workers] {
		if fw.err != nil && failed == nil {
			failed = fw
		}
		fw.stats.FragmentStats.AddStats(fw.ex.StatsRef())
		stats.Add(&fw.stats)
		c.countDispatches(fw.ex)
		fw.end()
	}
	if failed != nil {
		stage := "failed"
		if failed.initErr {
			stage = "init failed"
		}
		c.setErr(INVALID_OPERATION, "draw: fragment shader %s: %v", stage, failed.err)
		return
	}
	stats.FragmentStats.Invocations = stats.FragmentsShaded
	c.lastDraw = stats
	c.draws.Add(&stats)
}

// defaultTileSize is the edge length of the square framebuffer tiles the
// fragment stage shards draws into. 64 keeps a tile's color/depth
// footprint (~16 KiB + 16 KiB) cache-resident while leaving enough tiles
// on paper-sized framebuffers to balance the worker pool.
const defaultTileSize = 64

// drawRun is the per-draw state every fragment worker reads.
type drawRun struct {
	c          *Context
	p          *Program
	tris       [][3]raster.ShadedVertex
	pts        []raster.ShadedVertex
	pointSizes []float32
	frontCCW   bool
	colorData  []byte
	depthData  []float32
	fbW, fbH   int
}

// fragWorker is one raster worker's fragment stage. It collects the
// fragments one primitive covers in the worker's tile into groups of up
// to the executor's lane width, shades each group in one executor run,
// then runs depth → blend → write per fragment in emission order. A
// program keeps one per raster worker across draws, with its VM,
// rasterizer and group scratch.
type fragWorker struct {
	*drawRun
	vm      *shader.VM // the worker's cached lane engine
	ex      shader.Executor
	rz      *raster.Rasterizer
	stats   DrawStats
	err     error
	initErr bool

	// The group being collected: each lane's pixel and window depth (its
	// shader inputs go straight into the executor's lane registers).
	n, lanes int
	x, y     [shader.LaneWidth]int
	z        [shader.LaneWidth]float32

	emitFn      func(*raster.Fragment)
	emitPointFn func(*raster.Fragment, float32, float32)
}

// begin prepares the worker for a draw over viewport vp: a reset
// rasterizer, and a reset executor with the program's uniforms and
// initialized globals.
func (fw *fragWorker) begin(dr *drawRun, vp raster.Viewport) {
	if fw.rz == nil {
		fw.rz = raster.NewRasterizer(vp, dr.p.varyComps)
		fw.emitFn = fw.emit
		fw.emitPointFn = fw.emitPoint
	}
	fw.rz.Reset(vp)
	fw.rz.SetDepthRange(dr.c.depthRange[0], dr.c.depthRange[1])
	fw.drawRun, fw.stats, fw.err, fw.initErr, fw.n = dr, DrawStats{}, nil, false, 0
	fw.ex = dr.c.executor(dr.p.fsProg, dr.p.fsCode, &fw.vm)
	fw.lanes = fw.ex.Lanes()
	dr.c.pushUniforms(dr.p, fw.ex, dr.p.fsProg)
	if err := fw.ex.InitGlobals(); err != nil {
		fw.err, fw.initErr = err, true
	}
}

// end drops the draw's references so a cached worker pins no
// framebuffer; its error stays readable.
func (fw *fragWorker) end() { fw.drawRun, fw.ex = nil, nil }

// region scans every primitive of the draw against the rasterizer's
// current tile (or the whole framebuffer when unrestricted), flushing the
// group at the end of each primitive.
func (fw *fragWorker) region() {
	for _, t := range fw.tris {
		fw.rz.Triangle(t[0], t[1], t[2], fw.frontCCW, fw.emitFn)
		fw.flush()
	}
	for pi, pt := range fw.pts {
		fw.rz.Point(pt, fw.pointSizes[pi], fw.emitPointFn)
		fw.flush()
	}
}

func (fw *fragWorker) emit(fr *raster.Fragment) { fw.add(fr, false, 0, 0) }

func (fw *fragWorker) emitPoint(fr *raster.Fragment, pcx, pcy float32) { fw.add(fr, true, pcx, pcy) }

// add appends a fragment that survives the framebuffer bounds and
// scissor to the group; point sprites carry their gl_PointCoord.
func (fw *fragWorker) add(fr *raster.Fragment, point bool, pcx, pcy float32) {
	c := fw.c
	if fw.err != nil || fr.X < 0 || fr.X >= fw.fbW || fr.Y < 0 || fr.Y >= fw.fbH {
		return
	}
	if c.scissorOn {
		if fr.X < c.scissor[0] || fr.X >= c.scissor[0]+c.scissor[2] ||
			fr.Y < c.scissor[1] || fr.Y >= c.scissor[1]+c.scissor[3] {
			return
		}
	}
	l := fw.n
	fw.ex.SetFragCoord(l, fr.FragCoord)
	fw.ex.SetFrontFacing(l, fr.FrontFacing)
	for _, link := range fw.p.varyings {
		fw.ex.SetGlobalFlat(l, link.fsDecl, fr.Varyings[link.offset:link.offset+link.comps])
	}
	fw.x[l], fw.y[l], fw.z[l] = fr.X, fr.Y, fr.FragCoord[2]
	if point {
		fw.ex.SetPointCoord(l, pcx, pcy)
	}
	fw.n++
	if fw.n == fw.lanes {
		fw.flush()
	}
}

// flush shades the collected group, then runs the per-fragment pipeline
// (depth → blend → mask → write) in emission order. Early depth is
// illegal when shaders can discard, so the shader runs first.
func (fw *fragWorker) flush() {
	n := fw.n
	fw.n = 0
	if n == 0 || fw.err != nil {
		return
	}
	discarded, err := fw.ex.Run(n)
	if err != nil {
		fw.err = err
		return
	}
	fw.stats.FragmentsShaded += uint64(n)
	for l := 0; l < n; l++ {
		if discarded&(1<<l) != 0 {
			fw.stats.FragmentsDiscarded++
			continue
		}
		if fw.c.writeFragment(fw.ex.FragOutput(l), fw.x[l], fw.y[l], fw.z[l], fw.colorData, fw.depthData, fw.fbW) {
			fw.stats.PixelsWritten++
		}
	}
}

// cullTriangle decides whether face culling rejects the triangle.
func (c *Context) cullTriangle(t [3]raster.ShadedVertex, frontCCW bool) bool {
	if c.cullMode == FRONT_AND_BACK {
		return true
	}
	// Signed area in NDC (w>0 assumed; matches rasterizer orientation).
	sgn := func(v raster.ShadedVertex) (x, y float64) {
		w := float64(v.Pos[3])
		if w == 0 {
			w = 1
		}
		return float64(v.Pos[0]) / w, float64(v.Pos[1]) / w
	}
	x0, y0 := sgn(t[0])
	x1, y1 := sgn(t[1])
	x2, y2 := sgn(t[2])
	area := (x1-x0)*(y2-y0) - (y1-y0)*(x2-x0)
	if area == 0 {
		return true
	}
	front := (area > 0) == frontCCW
	if front && c.cullMode == FRONT {
		return true
	}
	if !front && c.cullMode == BACK {
		return true
	}
	return false
}

// writeFragment runs the depth test, blending and the color mask for one
// shaded fragment at (x, y) with window depth z, reporting whether it
// passed the depth test.
func (c *Context) writeFragment(out [4]float32, x, y int, z float32, colorData []byte, depthData []float32, fbW int) bool {
	if c.depthTestOn && depthData != nil {
		di := y*fbW + x
		if !depthPass(c.depthFunc, z, depthData[di]) {
			return false
		}
		if c.depthMask {
			depthData[di] = z
		}
	}
	r, g, b, a := out[0], out[1], out[2], out[3]
	o := (y*fbW + x) * 4
	if c.blendOn {
		dr := float32(colorData[o+0]) / 255
		dg := float32(colorData[o+1]) / 255
		db := float32(colorData[o+2]) / 255
		da := float32(colorData[o+3]) / 255
		r, g, b, a = c.blend(r, g, b, a, dr, dg, db, da)
	}
	px := [4]byte{
		c.convertChannel(r), c.convertChannel(g),
		c.convertChannel(b), c.convertChannel(a),
	}
	for ch := 0; ch < 4; ch++ {
		if c.colorMask[ch] {
			colorData[o+ch] = px[ch]
		}
	}
	return true
}

func depthPass(fn uint32, frag, stored float32) bool {
	switch fn {
	case NEVER:
		return false
	case LESS:
		return frag < stored
	case EQUAL:
		return frag == stored
	case LEQUAL:
		return frag <= stored
	case GREATER:
		return frag > stored
	case NOTEQUAL:
		return frag != stored
	case GEQUAL:
		return frag >= stored
	default:
		return true
	}
}

// blend applies the configured blend function/equation in fp32 and returns
// the blended source color.
func (c *Context) blend(sr, sg, sb, sa, dr, dg, db, da float32) (r, g, b, a float32) {
	factor := func(f uint32, isSrc bool) [4]float32 {
		switch f {
		case ZERO:
			return [4]float32{0, 0, 0, 0}
		case ONE:
			return [4]float32{1, 1, 1, 1}
		case SRC_COLOR:
			return [4]float32{sr, sg, sb, sa}
		case ONE_MINUS_SRC_COLOR:
			return [4]float32{1 - sr, 1 - sg, 1 - sb, 1 - sa}
		case SRC_ALPHA:
			return [4]float32{sa, sa, sa, sa}
		case ONE_MINUS_SRC_ALPHA:
			return [4]float32{1 - sa, 1 - sa, 1 - sa, 1 - sa}
		case DST_ALPHA:
			return [4]float32{da, da, da, da}
		case ONE_MINUS_DST_ALPHA:
			return [4]float32{1 - da, 1 - da, 1 - da, 1 - da}
		case DST_COLOR:
			return [4]float32{dr, dg, db, da}
		case ONE_MINUS_DST_COLOR:
			return [4]float32{1 - dr, 1 - dg, 1 - db, 1 - da}
		case SRC_ALPHA_SATURATE:
			// Src-only factor (BlendFunc rejects it as dst): f = min(As,
			// 1-Ad) on RGB, 1 on alpha.
			if !isSrc {
				return [4]float32{1, 1, 1, 1}
			}
			f := sa
			if 1-da < f {
				f = 1 - da
			}
			return [4]float32{f, f, f, 1}
		}
		return [4]float32{1, 1, 1, 1}
	}
	fs := factor(c.blendSrc, true)
	fd := factor(c.blendDst, false)
	src := [4]float32{sr, sg, sb, sa}
	dst := [4]float32{dr, dg, db, da}
	var out [4]float32
	for i := 0; i < 4; i++ {
		switch c.blendEq {
		case FUNC_SUBTRACT:
			out[i] = src[i]*fs[i] - dst[i]*fd[i]
		case FUNC_REVERSE_SUBTRACT:
			out[i] = dst[i]*fd[i] - src[i]*fs[i]
		default:
			out[i] = src[i]*fs[i] + dst[i]*fd[i]
		}
	}
	return out[0], out[1], out[2], out[3]
}

// countDispatches adds the instructions a lane engine decoded this draw
// to VMDispatches; the interpreter decodes none.
func (c *Context) countDispatches(ex shader.Executor) {
	if vm, ok := ex.(*shader.VM); ok {
		c.dispatches += vm.Dispatches
	}
}

// pushUniforms copies program uniform values into an executor.
func (c *Context) pushUniforms(p *Program, ex shader.Executor, prog *glsl.Program) {
	for _, u := range prog.Uniforms {
		if v, ok := p.uniformVals[u.Name]; ok {
			ex.SetGlobal(u, v.Copy())
		}
	}
}
