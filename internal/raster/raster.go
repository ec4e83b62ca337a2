// Package raster implements triangle setup and scan conversion for the
// simulated OpenGL ES 2.0 pipeline: viewport transform, edge-function
// rasterization with a top-left fill rule (so the two triangles the paper
// uses to build a full-screen quad — challenge #2 — never double-shade the
// shared diagonal), and perspective-correct varying interpolation.
package raster

import "math"

// Viewport is the glViewport rectangle (window coordinates, y-up).
type Viewport struct {
	X, Y, W, H int
}

// ShadedVertex is a vertex-shader output: clip-space position plus the
// flattened varying components.
type ShadedVertex struct {
	Pos      [4]float32
	Varyings []float32
}

// Fragment is one covered pixel handed to the fragment stage. Varyings is
// reused between invocations; the consumer must not retain it.
type Fragment struct {
	X, Y        int    // pixel coordinates in the framebuffer
	FragCoord   [4]f32 // (x+0.5, y+0.5, z_window, 1/w_clip) per the GL spec
	FrontFacing bool
	Varyings    []float32
}

type f32 = float32

// windowVertex is a vertex after the viewport transform.
type windowVertex struct {
	x, y, z float64 // window coordinates
	invW    float64 // 1/w_clip
	vary    []float32
}

// Rasterizer converts primitives to fragments. One Rasterizer per worker;
// it owns scratch buffers.
type Rasterizer struct {
	vp          Viewport
	depthN      float64
	depthF      float64
	numVaryings int
	frag        Fragment
	// Tile restriction for parallel rasterization: only pixels with
	// row in [rowMin, rowMax) and column in [colMin, colMax) are
	// produced. Defaults to the whole framebuffer.
	rowMin, rowMax int
	colMin, colMax int
}

// NewRasterizer returns a rasterizer for the given viewport and varying
// component count. Depth range is the GL default [0,1].
func NewRasterizer(vp Viewport, numVaryings int) *Rasterizer {
	r := &Rasterizer{numVaryings: numVaryings}
	r.frag.Varyings = make([]float32, numVaryings)
	r.Reset(vp)
	return r
}

// Reset readies the rasterizer for a new draw over vp, keeping its
// scratch: GL default depth range, no tile restriction.
func (r *Rasterizer) Reset(vp Viewport) {
	r.vp, r.depthN, r.depthF = vp, 0, 1
	r.rowMin, r.rowMax = math.MinInt32, math.MaxInt32
	r.colMin, r.colMax = math.MinInt32, math.MaxInt32
}

// SetDepthRange configures glDepthRangef.
func (r *Rasterizer) SetDepthRange(n, f float32) {
	r.depthN, r.depthF = float64(n), float64(f)
}

// SetRowBand restricts fragment production to rows in [min, max), the unit
// of parallelism used by the draw-call scheduler.
func (r *Rasterizer) SetRowBand(min, max int) {
	r.rowMin, r.rowMax = min, max
}

// SetTile restricts fragment production to the half-open pixel rectangle
// [x0, x1) × [y0, y1) — the unit of parallelism of the tiled fragment
// stage. A triangle's scan loop is clipped to the tile, so fragments a
// tile never owns cost nothing beyond the bounding-box intersection.
func (r *Rasterizer) SetTile(x0, y0, x1, y1 int) {
	r.colMin, r.colMax = x0, x1
	r.rowMin, r.rowMax = y0, y1
}

// window maps a clip-space vertex to window coordinates. It reports false
// for vertices behind the eye (w <= 0), which this implementation drops
// rather than clips (full-screen GPGPU quads never hit this; see package
// doc for the limitation).
func (r *Rasterizer) window(v ShadedVertex) (windowVertex, bool) {
	w := float64(v.Pos[3])
	if w <= 0 {
		return windowVertex{}, false
	}
	invW := 1 / w
	ndcX := float64(v.Pos[0]) * invW
	ndcY := float64(v.Pos[1]) * invW
	ndcZ := float64(v.Pos[2]) * invW
	return windowVertex{
		x:    (ndcX+1)*0.5*float64(r.vp.W) + float64(r.vp.X),
		y:    (ndcY+1)*0.5*float64(r.vp.H) + float64(r.vp.Y),
		z:    r.depthN + (ndcZ+1)*0.5*(r.depthF-r.depthN),
		invW: invW,
		vary: v.Varyings,
	}, true
}

// Triangle rasterizes one triangle, calling emit for each covered pixel.
// Fill rule: a boundary pixel belongs to the triangle when it lies on a
// left edge (dy<0 walking the oriented boundary, y-up) or a top edge
// (dy==0, dx<0). Shared edges therefore shade exactly once.
func (r *Rasterizer) Triangle(v0, v1, v2 ShadedVertex, frontCCW bool, emit func(*Fragment)) {
	w0, ok0 := r.window(v0)
	w1, ok1 := r.window(v1)
	w2, ok2 := r.window(v2)
	if !ok0 || !ok1 || !ok2 {
		return
	}

	// Signed doubled area; positive = counter-clockwise in y-up coords.
	area := (w1.x-w0.x)*(w2.y-w0.y) - (w1.y-w0.y)*(w2.x-w0.x)
	if area == 0 {
		return
	}
	front := (area > 0) == frontCCW
	if area < 0 {
		// Reorient to CCW so all edge functions are positive inside.
		w1, w2 = w2, w1
		area = -area
	}

	// Bounding box clamped to viewport and tile.
	minX := int(math.Floor(min3(w0.x, w1.x, w2.x)))
	maxX := int(math.Ceil(max3(w0.x, w1.x, w2.x)))
	minY := int(math.Floor(min3(w0.y, w1.y, w2.y)))
	maxY := int(math.Ceil(max3(w0.y, w1.y, w2.y)))
	minX = maxI(minX, r.vp.X)
	minY = maxI(minY, r.vp.Y)
	maxX = minI(maxX, r.vp.X+r.vp.W)
	maxY = minI(maxY, r.vp.Y+r.vp.H)
	minY = maxI(minY, r.rowMin)
	maxY = minI(maxY, r.rowMax)
	minX = maxI(minX, r.colMin)
	maxX = minI(maxX, r.colMax)
	if minX >= maxX || minY >= maxY {
		return
	}

	// Edge i is opposite vertex i: e0 = v1->v2, e1 = v2->v0, e2 = v0->v1.
	e0 := mkEdge(w1, w2)
	e1 := mkEdge(w2, w0)
	e2 := mkEdge(w0, w1)

	invArea := 1 / area
	nv := r.numVaryings
	for y := minY; y < maxY; y++ {
		py := float64(y) + 0.5
		for x := minX; x < maxX; x++ {
			px := float64(x) + 0.5
			a0 := e0.eval(px, py)
			a1 := e1.eval(px, py)
			a2 := e2.eval(px, py)
			if !e0.inside(a0) || !e1.inside(a1) || !e2.inside(a2) {
				continue
			}
			l0 := a0 * invArea
			l1 := a1 * invArea
			l2 := a2 * invArea
			// Window z and 1/w interpolate affinely in screen space.
			z := l0*w0.z + l1*w1.z + l2*w2.z
			oneOverW := l0*w0.invW + l1*w1.invW + l2*w2.invW
			// Perspective-correct varyings.
			p0 := l0 * w0.invW
			p1 := l1 * w1.invW
			p2 := l2 * w2.invW
			norm := 1 / (p0 + p1 + p2)
			fr := &r.frag
			fr.X, fr.Y = x, y
			fr.FragCoord = [4]float32{
				float32(px), float32(py), float32(z), float32(oneOverW),
			}
			fr.FrontFacing = front
			for i := 0; i < nv; i++ {
				fr.Varyings[i] = float32((p0*float64(w0.vary[i]) +
					p1*float64(w1.vary[i]) + p2*float64(w2.vary[i])) * norm)
			}
			emit(fr)
		}
	}
}

// edge is one oriented triangle edge with its fill-rule classification.
type edge struct {
	dx, dy  float64 // edge vector a->b
	ax, ay  float64
	topLeft bool
}

func mkEdge(a, b windowVertex) edge {
	dx, dy := b.x-a.x, b.y-a.y
	return edge{
		dx: dx, dy: dy, ax: a.x, ay: a.y,
		topLeft: dy < 0 || (dy == 0 && dx < 0),
	}
}

// eval computes the edge function at (px,py): positive on the interior side
// for CCW-oriented triangles.
func (e edge) eval(px, py float64) float64 {
	return (py-e.ay)*e.dx - (px-e.ax)*e.dy
}

// inside implements the fill rule: strictly positive, or zero on a
// top-left edge.
func (e edge) inside(v float64) bool {
	if v > 0 {
		return true
	}
	return v == 0 && e.topLeft
}

// Point rasterizes a point sprite of the given size centred on the vertex
// (GL_POINTS support; gl_PointCoord is provided through the callback's
// fragment as normalized sprite coordinates in Varyings beyond the regular
// ones — the caller passes pointCoord separately instead).
func (r *Rasterizer) Point(v ShadedVertex, size float32, emit func(fr *Fragment, pcx, pcy float32)) {
	w, ok := r.window(v)
	if !ok {
		return
	}
	if size < 1 {
		size = 1
	}
	half := float64(size) / 2
	minX := maxI(maxI(int(math.Floor(w.x-half)), maxI(r.vp.X, 0)), r.colMin)
	maxX := minI(minI(int(math.Ceil(w.x+half)), r.vp.X+r.vp.W), r.colMax)
	minY := maxI(maxI(int(math.Floor(w.y-half)), r.vp.Y), r.rowMin)
	maxY := minI(minI(int(math.Ceil(w.y+half)), r.vp.Y+r.vp.H), r.rowMax)
	nv := r.numVaryings
	for y := minY; y < maxY; y++ {
		py := float64(y) + 0.5
		if math.Abs(py-w.y) > half {
			continue
		}
		for x := minX; x < maxX; x++ {
			px := float64(x) + 0.5
			if math.Abs(px-w.x) > half {
				continue
			}
			fr := &r.frag
			fr.X, fr.Y = x, y
			fr.FragCoord = [4]float32{float32(px), float32(py), float32(w.z), float32(w.invW)}
			fr.FrontFacing = true
			for i := 0; i < nv; i++ {
				fr.Varyings[i] = w.vary[i] // points have flat varyings
			}
			pcx := float32(0.5 + (px-w.x)/float64(size))
			pcy := float32(0.5 - (py-w.y)/float64(size))
			emit(fr, pcx, pcy)
		}
	}
}

func min3(a, b, c float64) float64 { return math.Min(a, math.Min(b, c)) }
func max3(a, b, c float64) float64 { return math.Max(a, math.Max(b, c)) }

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
