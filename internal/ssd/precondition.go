package ssd

import (
	"fmt"

	"readretry/internal/ftl"
)

// imageKey identifies a preconditioned FTL exactly: preconditioning maps
// LPNs [0, pages) in order on a fresh FTL, so the result is a pure function
// of the FTL configuration (geometry and GC threshold) and the page count.
type imageKey struct {
	cfg   ftl.Config
	pages int64
}

var imageMemo onceMemo[imageKey, *ftl.FTL]

// preconditioned returns a private FTL with LPNs [0, pages) mapped as cold
// data. Every cell of a sweep used to rebuild the identical image in
// ssd.New; now each distinct key is preconditioned once, frozen, and every
// device gets a Clone of it.
func preconditioned(cfg ftl.Config, pages int64) (*ftl.FTL, error) {
	key := imageKey{cfg: cfg, pages: pages}
	img, err := imageMemo.get(key, func() (*ftl.FTL, error) { return buildImage(cfg, pages) })
	if err != nil {
		return nil, err
	}
	return img.Clone(), nil
}

func buildImage(cfg ftl.Config, pages int64) (*ftl.FTL, error) {
	f, err := ftl.New(cfg)
	if err != nil {
		return nil, err
	}
	for lpn := int64(0); lpn < pages; lpn++ {
		if _, err := f.Precondition(lpn); err != nil {
			return nil, fmt.Errorf("ssd: preconditioning to %d pages: %w", pages, err)
		}
	}
	f.Freeze()
	return f, nil
}
