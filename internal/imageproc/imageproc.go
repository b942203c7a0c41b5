// Package imageproc is the image-processing substrate for the paper's
// nvJPEG-derived side task (§6.1.4): each step resizes one image with
// bilinear interpolation and alpha-blends a watermark onto it, on real
// pixel data generated deterministically (the stand-in for Nvidia's sample
// inputs). The simulated GPU is charged the kernel cost by the side-task
// layer; the pixel math here keeps the code path real. The free functions
// return fresh images; Pipeline keeps one source, one destination and one
// generator and hands out its destination, valid until its next Step.
package imageproc

import (
	"fmt"
	"image"
	"math/rand"
)

// Synthetic renders a deterministic RGBA test image with smooth gradients
// and seeded noise, so resizing has real structure to interpolate.
func Synthetic(w, h int, seed int64) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	synthesize(img, newRamps(w, h), rand.New(rand.NewSource(seed)))
	return img
}

// ramps are a w×h synthetic image's gradients, the same for every image of
// that size: red by x, green by y and blue by x+y.
type ramps struct{ x, y, xy []uint8 }

func newRamps(w, h int) ramps {
	return ramps{x: ramp(w, w-1), y: ramp(h, h-1), xy: ramp(w+h-1, w+h-2)}
}

// ramp returns uint8(i*255/span) for i in [0, n), spreading 0…255 over span.
func ramp(n, span int) []uint8 {
	r := make([]uint8, max(0, n))
	for i := range r {
		r[i] = uint8((i * 255) / max(1, span))
	}
	return r
}

// synthesize fills img, whose bounds start at the origin and match r,
// drawing the noise level from rng.
func synthesize(img *image.RGBA, r ramps, rng *rand.Rand) {
	noise := uint8(rng.Intn(32))
	w := len(r.x)
	for y, g := range r.y {
		row := img.Pix[y*img.Stride:][:4*w]
		xy := r.xy[y:][:w]
		for x, red := range r.x {
			px := row[4*x:][:4]
			px[0] = red + noise
			px[1] = g
			px[2] = xy[x]
			px[3] = 255
		}
	}
}

// Resize scales src to (w, h) with bilinear interpolation.
func Resize(src *image.RGBA, w, h int) (*image.RGBA, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("imageproc: invalid target %dx%d", w, h)
	}
	if src.Rect.Empty() {
		return nil, fmt.Errorf("imageproc: empty source")
	}
	dst := image.NewRGBA(image.Rect(0, 0, w, h))
	resize(dst, src)
	return dst, nil
}

// resize fills dst, whose bounds start at the origin and are not empty, from
// the non-empty src.
func resize(dst, src *image.RGBA) {
	w, h := dst.Rect.Dx(), dst.Rect.Dy()
	sw, sh := src.Rect.Dx(), src.Rect.Dy()
	xRatio := float64(sw-1) / float64(max(1, w-1))
	yRatio := float64(sh-1) / float64(max(1, h-1))
	for y := 0; y < h; y++ {
		sy := float64(y) * yRatio
		y0 := int(sy)
		y1 := min(y0+1, sh-1)
		fy := sy - float64(y0)
		gy := 1 - fy
		top, bot := src.Pix[y0*src.Stride:][:4*sw], src.Pix[y1*src.Stride:][:4*sw]
		row := dst.Pix[y*dst.Stride:][:4*w]
		for x := 0; x < w; x++ {
			sx := float64(x) * xRatio
			x0 := int(sx)
			x1 := min(x0+1, sw-1)
			fx := sx - float64(x0)
			gx := 1 - fx
			c00, c10 := top[4*x0:][:4], top[4*x1:][:4]
			c01, c11 := bot[4*x0:][:4], bot[4*x1:][:4]
			px := row[4*x:][:4]
			for c := range px {
				t := float64(c00[c])*gx + float64(c10[c])*fx
				b := float64(c01[c])*gx + float64(c11[c])*fx
				px[c] = uint8(t*gy + b*fy + 0.5)
			}
		}
	}
}

// Watermark alpha-blends mark onto dst at (ox, oy), clipping to bounds.
// opacity is in [0,1].
func Watermark(dst *image.RGBA, mark *image.RGBA, ox, oy int, opacity float64) {
	opacity = min(max(opacity, 0), 1)
	// The part of the mark, in its own coordinates, that lands inside dst.
	clip := dst.Rect.Sub(image.Pt(ox, oy)).Intersect(image.Rect(0, 0, mark.Rect.Dx(), mark.Rect.Dy()))
	for my := clip.Min.Y; my < clip.Max.Y; my++ {
		mrow := mark.Pix[my*mark.Stride:]
		drow := dst.Pix[(oy+my-dst.Rect.Min.Y)*dst.Stride:]
		for mx := clip.Min.X; mx < clip.Max.X; mx++ {
			m := mrow[4*mx:][:4]
			alpha := opacity * float64(m[3]) / 255.0
			if alpha == 0 {
				continue
			}
			d := drow[4*(ox+mx-dst.Rect.Min.X):][:4]
			for c := range 3 {
				d[c] = uint8(float64(d[c])*(1-alpha) + float64(m[c])*alpha + 0.5)
			}
			d[3] = 255
		}
	}
}

// Pipeline is the step-wise side-task workload: one Step() resizes the next
// synthetic image and stamps the watermark, mirroring Nvidia's
// resize-and-watermark sample [41]. It reuses one source image, one
// destination image, the source's gradients and one random generator,
// re-seeded per image, so a warmed Step allocates nothing.
type Pipeline struct {
	src, dst  *image.RGBA
	ramps     ramps
	mark      *image.RGBA
	rng       *rand.Rand
	seed      int64
	processed int
	// err is what every Step returns when the dimensions cannot be processed.
	err error
}

// NewPipeline builds the workload. The watermark is a small translucent
// badge rendered once.
func NewPipeline(srcW, srcH, dstW, dstH int, seed int64) *Pipeline {
	mark := image.NewRGBA(image.Rect(0, 0, 32, 16))
	for i := 0; i < len(mark.Pix); i += 4 {
		copy(mark.Pix[i:], []uint8{255, 255, 255, 128})
	}
	p := &Pipeline{mark: mark, rng: rand.New(rand.NewSource(seed)), seed: seed}
	switch {
	case dstW <= 0 || dstH <= 0:
		p.err = fmt.Errorf("imageproc: invalid target %dx%d", dstW, dstH)
	case srcW <= 0 || srcH <= 0:
		p.err = fmt.Errorf("imageproc: empty source")
	default:
		p.src = image.NewRGBA(image.Rect(0, 0, srcW, srcH))
		p.ramps = newRamps(srcW, srcH)
		p.dst = image.NewRGBA(image.Rect(0, 0, dstW, dstH))
	}
	return p
}

// Step processes one image and returns it. The image is the pipeline's own
// and is valid until the next Step, which overwrites it.
func (p *Pipeline) Step() (*image.RGBA, error) {
	if p.err != nil {
		return nil, p.err
	}
	p.rng.Seed(p.seed + int64(p.processed))
	synthesize(p.src, p.ramps, p.rng)
	resize(p.dst, p.src)
	Watermark(p.dst, p.mark, p.dst.Rect.Dx()-40, p.dst.Rect.Dy()-24, 0.6)
	p.processed++
	return p.dst, nil
}

// Processed reports the number of images completed.
func (p *Pipeline) Processed() int { return p.processed }
