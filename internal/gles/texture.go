package gles

import (
	"math"

	"glescompute/internal/shader"
)

// Texture is a texture object. All formats are stored internally as RGBA8 —
// exactly the only sized storage ES 2.0 guarantees, which is what forces
// the paper's numeric transformations (challenge #5).
type Texture struct {
	id     uint32
	target uint32 // TEXTURE_2D or TEXTURE_CUBE_MAP, fixed on first bind

	levels []texLevel // mip chain for 2D; face 0 only for cube (see doc)

	format    uint32 // client format of level 0
	minFilter uint32
	magFilter uint32
	wrapS     uint32
	wrapT     uint32
}

type texLevel struct {
	width, height int
	data          []byte // RGBA8, row-major, bottom-up (GL convention)
}

// GenTextures mirrors glGenTextures.
func (c *Context) GenTextures(n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = c.nextTexID
		c.nextTexID++
		c.textures[ids[i]] = nil // reserved, created on first bind
	}
	return ids
}

// CreateTexture is a convenience for GenTextures(1)[0].
func (c *Context) CreateTexture() uint32 { return c.GenTextures(1)[0] }

// DeleteTexture mirrors glDeleteTextures for one name.
func (c *Context) DeleteTexture(id uint32) {
	if id == 0 {
		return
	}
	delete(c.textures, id)
	for i := range c.texUnits {
		if c.texUnits[i].tex2D == id {
			c.texUnits[i].tex2D = 0
		}
		if c.texUnits[i].texCube == id {
			c.texUnits[i].texCube = 0
		}
	}
}

// IsTexture mirrors glIsTexture.
func (c *Context) IsTexture(id uint32) bool {
	t, ok := c.textures[id]
	return ok && t != nil
}

// ActiveTexture mirrors glActiveTexture.
func (c *Context) ActiveTexture(unit uint32) {
	idx := int(unit) - TEXTURE0
	if idx < 0 || idx >= len(c.texUnits) {
		c.setErr(INVALID_ENUM, "ActiveTexture: unit %d out of range", idx)
		return
	}
	c.activeUnit = idx
}

// BindTexture mirrors glBindTexture.
func (c *Context) BindTexture(target, id uint32) {
	if target != TEXTURE_2D && target != TEXTURE_CUBE_MAP {
		c.setErr(INVALID_ENUM, "BindTexture: bad target 0x%04x", target)
		return
	}
	if id != 0 {
		t, reserved := c.textures[id]
		if !reserved && t == nil {
			// Binding an un-generated name creates it (GL allows this).
		}
		if t == nil {
			t = &Texture{
				id: id, target: target,
				minFilter: NEAREST_MIPMAP_LINEAR, magFilter: LINEAR,
				wrapS: REPEAT, wrapT: REPEAT,
			}
			c.textures[id] = t
		} else if t.target != target {
			c.setErr(INVALID_OPERATION, "BindTexture: texture %d already has target 0x%04x", id, t.target)
			return
		}
	}
	if target == TEXTURE_2D {
		c.texUnits[c.activeUnit].tex2D = id
	} else {
		c.texUnits[c.activeUnit].texCube = id
	}
}

// boundTexture returns the texture bound to the active unit for target.
func (c *Context) boundTexture(target uint32) *Texture {
	var id uint32
	if target == TEXTURE_2D {
		id = c.texUnits[c.activeUnit].tex2D
	} else {
		id = c.texUnits[c.activeUnit].texCube
	}
	if id == 0 {
		return nil
	}
	return c.textures[id]
}

// bytesPerPixel returns the client storage size for format/type, or 0 when
// the combination is invalid under ES 2.0.
func bytesPerPixel(format, typ uint32) int {
	switch typ {
	case UNSIGNED_BYTE:
		switch format {
		case RGBA:
			return 4
		case RGB:
			return 3
		case LUMINANCE_ALPHA:
			return 2
		case LUMINANCE, ALPHA:
			return 1
		}
	case UNSIGNED_SHORT_5_6_5:
		if format == RGB {
			return 2
		}
	case UNSIGNED_SHORT_4_4_4_4, UNSIGNED_SHORT_5_5_5_1:
		if format == RGBA {
			return 2
		}
	case FLOAT:
		// The crux of the paper: OpenGL ES 2.0 core has no float texture
		// formats. Uploading floats must fail so clients are forced into
		// the byte-packing transformations of §IV.
		return 0
	}
	return 0
}

// TexImage2D mirrors glTexImage2D. Data may be nil to allocate
// uninitialized storage. Only level-0 2D uploads with byte-sized formats
// are accepted (ES 2.0 core, no extensions).
func (c *Context) TexImage2D(target uint32, level int, internalFormat uint32, width, height int, border int, format, typ uint32, data []byte) {
	if c.fault != nil {
		if _, ok := c.faultEnter(FaultOpUpload); !ok {
			return
		}
	}
	if target != TEXTURE_2D {
		c.setErr(INVALID_ENUM, "TexImage2D: only TEXTURE_2D is supported, got 0x%04x", target)
		return
	}
	t := c.boundTexture(TEXTURE_2D)
	if t == nil {
		c.setErr(INVALID_OPERATION, "TexImage2D: no texture bound")
		return
	}
	if border != 0 {
		c.setErr(INVALID_VALUE, "TexImage2D: border must be 0 in ES 2.0")
		return
	}
	if internalFormat != format {
		c.setErr(INVALID_OPERATION, "TexImage2D: internalformat must equal format in ES 2.0")
		return
	}
	if width < 0 || height < 0 || width > c.caps.MaxTextureSize || height > c.caps.MaxTextureSize {
		c.setErr(INVALID_VALUE, "TexImage2D: bad size %dx%d", width, height)
		return
	}
	bpp := bytesPerPixel(format, typ)
	if bpp == 0 {
		c.setErr(INVALID_ENUM, "TexImage2D: unsupported format/type (0x%04x/0x%04x); ES 2.0 has no float textures", format, typ)
		return
	}
	if level < 0 || level > 31 {
		c.setErr(INVALID_VALUE, "TexImage2D: bad level %d", level)
		return
	}
	if data != nil && len(data) < width*height*bpp {
		c.setErr(INVALID_OPERATION, "TexImage2D: data too short: %d < %d", len(data), width*height*bpp)
		return
	}

	rgba := make([]byte, width*height*4)
	if data != nil {
		convertToRGBA8(rgba, data, width*height, format, typ)
		c.transfers.TexUploadBytes += uint64(width * height * bpp)
		// nil data allocates storage without moving host bytes, so only
		// real uploads pay the per-call transfer overhead in the model.
		c.transfers.TexUploadCalls++
	}

	for len(t.levels) <= level {
		t.levels = append(t.levels, texLevel{})
	}
	t.levels[level] = texLevel{width: width, height: height, data: rgba}
	if level == 0 {
		t.format = format
	}
}

// TexSubImage2D mirrors glTexSubImage2D.
func (c *Context) TexSubImage2D(target uint32, level, xoff, yoff, width, height int, format, typ uint32, data []byte) {
	if c.fault != nil {
		if _, ok := c.faultEnter(FaultOpUpload); !ok {
			return
		}
	}
	if target != TEXTURE_2D {
		c.setErr(INVALID_ENUM, "TexSubImage2D: only TEXTURE_2D is supported")
		return
	}
	t := c.boundTexture(TEXTURE_2D)
	if t == nil || level >= len(t.levels) || t.levels[level].data == nil {
		c.setErr(INVALID_OPERATION, "TexSubImage2D: level %d not allocated", level)
		return
	}
	lv := &t.levels[level]
	if xoff < 0 || yoff < 0 || xoff+width > lv.width || yoff+height > lv.height {
		c.setErr(INVALID_VALUE, "TexSubImage2D: region out of bounds")
		return
	}
	bpp := bytesPerPixel(format, typ)
	if bpp == 0 {
		c.setErr(INVALID_ENUM, "TexSubImage2D: unsupported format/type")
		return
	}
	if len(data) < width*height*bpp {
		c.setErr(INVALID_OPERATION, "TexSubImage2D: data too short")
		return
	}
	row := make([]byte, width*4)
	for y := 0; y < height; y++ {
		convertToRGBA8(row, data[y*width*bpp:(y+1)*width*bpp], width, format, typ)
		dst := ((yoff+y)*lv.width + xoff) * 4
		copy(lv.data[dst:dst+width*4], row)
	}
	c.transfers.TexUploadBytes += uint64(width * height * bpp)
	c.transfers.TexUploadCalls++
}

// convertToRGBA8 expands count pixels of the given client format into RGBA8.
func convertToRGBA8(dst, src []byte, count int, format, typ uint32) {
	switch typ {
	case UNSIGNED_BYTE:
		switch format {
		case RGBA:
			copy(dst, src[:count*4])
		case RGB:
			for i := 0; i < count; i++ {
				dst[i*4+0] = src[i*3+0]
				dst[i*4+1] = src[i*3+1]
				dst[i*4+2] = src[i*3+2]
				dst[i*4+3] = 255
			}
		case LUMINANCE:
			for i := 0; i < count; i++ {
				l := src[i]
				dst[i*4+0], dst[i*4+1], dst[i*4+2], dst[i*4+3] = l, l, l, 255
			}
		case LUMINANCE_ALPHA:
			for i := 0; i < count; i++ {
				l, a := src[i*2], src[i*2+1]
				dst[i*4+0], dst[i*4+1], dst[i*4+2], dst[i*4+3] = l, l, l, a
			}
		case ALPHA:
			for i := 0; i < count; i++ {
				dst[i*4+0], dst[i*4+1], dst[i*4+2], dst[i*4+3] = 0, 0, 0, src[i]
			}
		}
	case UNSIGNED_SHORT_5_6_5:
		for i := 0; i < count; i++ {
			v := uint16(src[i*2]) | uint16(src[i*2+1])<<8
			r := byte((v >> 11) & 0x1F)
			g := byte((v >> 5) & 0x3F)
			b := byte(v & 0x1F)
			dst[i*4+0] = byte((uint32(r)*255 + 15) / 31)
			dst[i*4+1] = byte((uint32(g)*255 + 31) / 63)
			dst[i*4+2] = byte((uint32(b)*255 + 15) / 31)
			dst[i*4+3] = 255
		}
	case UNSIGNED_SHORT_4_4_4_4:
		for i := 0; i < count; i++ {
			v := uint16(src[i*2]) | uint16(src[i*2+1])<<8
			dst[i*4+0] = byte(((v >> 12) & 0xF) * 17)
			dst[i*4+1] = byte(((v >> 8) & 0xF) * 17)
			dst[i*4+2] = byte(((v >> 4) & 0xF) * 17)
			dst[i*4+3] = byte((v & 0xF) * 17)
		}
	case UNSIGNED_SHORT_5_5_5_1:
		for i := 0; i < count; i++ {
			v := uint16(src[i*2]) | uint16(src[i*2+1])<<8
			dst[i*4+0] = byte((uint32((v>>11)&0x1F)*255 + 15) / 31)
			dst[i*4+1] = byte((uint32((v>>6)&0x1F)*255 + 15) / 31)
			dst[i*4+2] = byte((uint32((v>>1)&0x1F)*255 + 15) / 31)
			if v&1 != 0 {
				dst[i*4+3] = 255
			} else {
				dst[i*4+3] = 0
			}
		}
	}
}

// TexParameteri mirrors glTexParameteri.
func (c *Context) TexParameteri(target, pname uint32, param uint32) {
	t := c.boundTexture(target)
	if t == nil {
		c.setErr(INVALID_OPERATION, "TexParameteri: no texture bound")
		return
	}
	switch pname {
	case TEXTURE_MIN_FILTER:
		switch param {
		case NEAREST, LINEAR, NEAREST_MIPMAP_NEAREST, LINEAR_MIPMAP_NEAREST,
			NEAREST_MIPMAP_LINEAR, LINEAR_MIPMAP_LINEAR:
			t.minFilter = param
		default:
			c.setErr(INVALID_ENUM, "TexParameteri: bad min filter")
		}
	case TEXTURE_MAG_FILTER:
		switch param {
		case NEAREST, LINEAR:
			t.magFilter = param
		default:
			c.setErr(INVALID_ENUM, "TexParameteri: bad mag filter")
		}
	case TEXTURE_WRAP_S:
		if validWrap(param) {
			t.wrapS = param
		} else {
			c.setErr(INVALID_ENUM, "TexParameteri: bad wrap")
		}
	case TEXTURE_WRAP_T:
		if validWrap(param) {
			t.wrapT = param
		} else {
			c.setErr(INVALID_ENUM, "TexParameteri: bad wrap")
		}
	default:
		c.setErr(INVALID_ENUM, "TexParameteri: bad pname 0x%04x", pname)
	}
}

func validWrap(w uint32) bool {
	return w == REPEAT || w == CLAMP_TO_EDGE || w == MIRRORED_REPEAT
}

// GenerateMipmap mirrors glGenerateMipmap (box filter).
func (c *Context) GenerateMipmap(target uint32) {
	t := c.boundTexture(target)
	if t == nil || len(t.levels) == 0 || t.levels[0].data == nil {
		c.setErr(INVALID_OPERATION, "GenerateMipmap: no level-0 image")
		return
	}
	base := t.levels[0]
	if !isPow2(base.width) || !isPow2(base.height) {
		// ES 2.0: NPOT textures cannot be mipmapped.
		c.setErr(INVALID_OPERATION, "GenerateMipmap: NPOT texture (%dx%d)", base.width, base.height)
		return
	}
	t.levels = t.levels[:1]
	w, h := base.width, base.height
	prev := base
	for w > 1 || h > 1 {
		nw, nh := maxInt(w/2, 1), maxInt(h/2, 1)
		next := texLevel{width: nw, height: nh, data: make([]byte, nw*nh*4)}
		for y := 0; y < nh; y++ {
			for x := 0; x < nw; x++ {
				for ch := 0; ch < 4; ch++ {
					x0, y0 := minInt(2*x, w-1), minInt(2*y, h-1)
					x1, y1 := minInt(2*x+1, w-1), minInt(2*y+1, h-1)
					sum := int(prev.data[(y0*w+x0)*4+ch]) +
						int(prev.data[(y0*w+x1)*4+ch]) +
						int(prev.data[(y1*w+x0)*4+ch]) +
						int(prev.data[(y1*w+x1)*4+ch])
					next.data[(y*nw+x)*4+ch] = byte((sum + 2) / 4)
				}
			}
		}
		t.levels = append(t.levels, next)
		prev = next
		w, h = nw, nh
	}
}

// complete implements the ES 2.0 texture completeness rules, including the
// NPOT restrictions: an NPOT texture is complete only with non-mipmap
// filtering and CLAMP_TO_EDGE wrapping. Incomplete textures sample as
// opaque black — a classic GPGPU-on-mobile pitfall the paper's runtime must
// avoid by construction.
func (t *Texture) complete() bool {
	if len(t.levels) == 0 || t.levels[0].data == nil {
		return false
	}
	base := t.levels[0]
	if base.width == 0 || base.height == 0 {
		return false
	}
	npot := !isPow2(base.width) || !isPow2(base.height)
	mipmapped := t.minFilter != NEAREST && t.minFilter != LINEAR
	if npot {
		if mipmapped {
			return false
		}
		if t.wrapS != CLAMP_TO_EDGE || t.wrapT != CLAMP_TO_EDGE {
			return false
		}
	}
	if mipmapped {
		// Need a full chain.
		w, h := base.width, base.height
		n := 1
		for w > 1 || h > 1 {
			w, h = maxInt(w/2, 1), maxInt(h/2, 1)
			n++
		}
		if len(t.levels) < n {
			return false
		}
		for i := 0; i < n; i++ {
			if t.levels[i].data == nil {
				return false
			}
		}
	}
	return true
}

// drawSampler is the shader.TextureSampler of one draw. Each texture
// unit's binding is resolved once when the draw starts — completeness,
// base level, filter, wraps and the minification decision — so a fetch is
// only the filtered texel lookup. A unit whose texture is missing or
// incomplete samples opaque black.
type drawSampler struct {
	tex2D, texCube []boundTexture
}

// boundTexture is one unit's resolved binding; lv is nil when the unit
// samples opaque black.
type boundTexture struct {
	lv           *texLevel
	linear       bool
	wrapS, wrapT uint32
}

var opaqueBlack = [4]float32{0, 0, 0, 1}

var unbound boundTexture // samples opaque black

// resolve binds the context's texture units as they are at draw start.
func (s *drawSampler) resolve(c *Context) {
	if s.tex2D == nil {
		s.tex2D = make([]boundTexture, len(c.texUnits))
		s.texCube = make([]boundTexture, len(c.texUnits))
	}
	for i, u := range c.texUnits {
		s.tex2D[i] = c.bindTexture(u.tex2D)
		s.texCube[i] = c.bindTexture(u.texCube)
	}
}

func (c *Context) bindTexture(id uint32) boundTexture {
	tex := c.textures[id]
	if tex == nil || !tex.complete() {
		return boundTexture{}
	}
	// The filter comes from minFilter under minification and magFilter
	// under magnification, per the GL footprint rule. Mipmap selection
	// always uses the base level (no derivatives in this implementation);
	// mip filters behave like their within-level counterparts
	// (LINEAR_MIPMAP_* filters linearly, NEAREST_MIPMAP_* point-samples).
	filter := tex.magFilter
	if c.minified(tex) {
		filter = tex.minFilter
	}
	return boundTexture{
		lv:     &tex.levels[0],
		linear: filter == LINEAR || filter == LINEAR_MIPMAP_NEAREST || filter == LINEAR_MIPMAP_LINEAR,
		wrapS:  tex.wrapS,
		wrapT:  tex.wrapT,
	}
}

func (b *boundTexture) sample(s, t float32) [4]float32 {
	if b.lv == nil {
		return opaqueBlack
	}
	if b.linear {
		return b.lv.sampleLinear(s, t, b.wrapS, b.wrapT)
	}
	return b.lv.sampleNearest(s, t, b.wrapS, b.wrapT)
}

// Sample2D implements shader.TextureSampler.
func (s *drawSampler) Sample2D(unit int, u, v float32) [4]float32 {
	return s.unit(s.tex2D, unit).sample(u, v)
}

// unit is a unit's resolved binding, or the unbound (opaque black) one
// for a unit outside the context's range.
func (s *drawSampler) unit(units []boundTexture, unit int) *boundTexture {
	if unit < 0 || unit >= len(units) {
		return &unbound
	}
	return &units[unit]
}

// minified estimates the sampling footprint (the GL scale factor ρ) for
// filter selection. The shader interface carries no derivatives, so the
// texel-per-pixel rate is taken from the texture resolution against the
// current viewport — exact for the full-screen-quad mapping GPGPU uses,
// where du/dx = texW/vpW, and a sound heuristic elsewhere. ρ > 1 (more
// than one texel per pixel) selects the minification filter.
func (c *Context) minified(tex *Texture) bool {
	lv := &tex.levels[0]
	vw, vh := c.viewport[2], c.viewport[3]
	if vw <= 0 || vh <= 0 {
		return false
	}
	return lv.width > vw || lv.height > vh
}

// SampleCube implements shader.TextureSampler. Cube sampling selects the
// major-axis face but this implementation stores a single face; GPGPU code
// never uses cube maps, so faces alias face 0 (documented limitation).
func (s *drawSampler) SampleCube(unit int, x, y, z float32) [4]float32 {
	u, v := cubeCoords(x, y, z)
	return s.unit(s.texCube, unit).sample(u, v)
}

// SampleLanes implements shader.TextureSampler: one texture instruction
// over a lane group. The unit's binding is looked up once and again only
// when a lane names a different unit (sampler uniforms are the same in
// every lane of a draw).
func (s *drawSampler) SampleLanes(unit, u, v, w *[shader.LaneWidth]float32, act []uint8, out *[4][shader.LaneWidth]float32) {
	units := s.tex2D
	if w != nil {
		units = s.texCube
	}
	cur, b := -1, &unbound // unit -1 is unbound too
	for _, l := range act {
		l &= shader.LaneWidth - 1
		if k := int(unit[l]); k != cur {
			cur, b = k, s.unit(units, k)
		}
		x, y := u[l], v[l]
		if w != nil {
			x, y = cubeCoords(x, y, w[l])
		}
		rgba := b.sample(x, y)
		out[0][l], out[1][l], out[2][l], out[3][l] = rgba[0], rgba[1], rgba[2], rgba[3]
	}
}

// cubeCoords projects a cube-map direction onto its major axis's face.
func cubeCoords(x, y, z float32) (u, v float32) {
	as, at, ar := abs32(x), abs32(y), abs32(z)
	switch {
	case ar >= as && ar >= at:
		return (x/ar + 1) / 2, (y/ar + 1) / 2
	case as >= at:
		return (z/as + 1) / 2, (y/as + 1) / 2
	default:
		return (x/at + 1) / 2, (z/at + 1) / 2
	}
}

// unorm8 maps a texel byte c to c / (2^8 - 1), equation (1) of the
// paper, precomputed so a fetch does no division.
var unorm8 = func() (t [256]float32) {
	for c := range t {
		t[c] = float32(c) / 255
	}
	return t
}()

func (l *texLevel) texelAt(x, y int) [4]float32 {
	p := l.data[(y*l.width+x)*4:]
	return [4]float32{unorm8[p[0]], unorm8[p[1]], unorm8[p[2]], unorm8[p[3]]}
}

func wrapCoord(i, n int, wrap uint32) int {
	switch wrap {
	case CLAMP_TO_EDGE:
		if i < 0 {
			return 0
		}
		if i >= n {
			return n - 1
		}
		return i
	case MIRRORED_REPEAT:
		period := 2 * n
		i = ((i % period) + period) % period
		if i >= n {
			return period - 1 - i
		}
		return i
	default: // REPEAT
		return ((i % n) + n) % n
	}
}

func (l *texLevel) sampleNearest(s, t float32, wrapS, wrapT uint32) [4]float32 {
	x := int(math.Floor(float64(s) * float64(l.width)))
	y := int(math.Floor(float64(t) * float64(l.height)))
	return l.texelAt(wrapCoord(x, l.width, wrapS), wrapCoord(y, l.height, wrapT))
}

func (l *texLevel) sampleLinear(s, t float32, wrapS, wrapT uint32) [4]float32 {
	fx := float64(s)*float64(l.width) - 0.5
	fy := float64(t)*float64(l.height) - 0.5
	x0 := int(math.Floor(fx))
	y0 := int(math.Floor(fy))
	ax := float32(fx - float64(x0))
	ay := float32(fy - float64(y0))
	t00 := l.texelAt(wrapCoord(x0, l.width, wrapS), wrapCoord(y0, l.height, wrapT))
	t10 := l.texelAt(wrapCoord(x0+1, l.width, wrapS), wrapCoord(y0, l.height, wrapT))
	t01 := l.texelAt(wrapCoord(x0, l.width, wrapS), wrapCoord(y0+1, l.height, wrapT))
	t11 := l.texelAt(wrapCoord(x0+1, l.width, wrapS), wrapCoord(y0+1, l.height, wrapT))
	var out [4]float32
	for i := 0; i < 4; i++ {
		top := t00[i]*(1-ax) + t10[i]*ax
		bot := t01[i]*(1-ax) + t11[i]*ax
		out[i] = top*(1-ay) + bot*ay
	}
	return out
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
