package service

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"vsresil/internal/campaign"
)

// maxGoldenCache bounds the service's golden-run cache. Entries hold
// the golden output bytes (a serialized panorama set), so the cache is
// kept small; when full, an arbitrary entry is evicted — the access
// pattern (campaign sweeps over a few workloads) does not reward LRU.
const maxGoldenCache = 16

// workload resolves the campaign's workload. A generated input goes
// through the request's registry cell like on every other surface;
// uploaded frames are the one workload only the service builds, with
// the cell's summarizer bound to the decoded frames. Its
// golden-cache key is the summarizer's key plus a SHA-256 of the
// decoded frames and their dimensions — an identity the client cannot
// collide by choice, and one that ignores PGM header text (comments,
// whitespace) that decodes to the same pixels.
func (c *CampaignSpec) workload(req *campaign.Request) (campaign.Workload, error) {
	if len(c.FramesPGM) == 0 {
		return req.Workload()
	}
	frames, name, err := c.InputSpec.frames()
	if err != nil {
		return campaign.Workload{}, err
	}
	sum, err := req.Cell().Backend(c.Seed)
	if err != nil {
		return campaign.Workload{}, err
	}
	h := sha256.New()
	for _, g := range frames {
		binary.Write(h, binary.LittleEndian, [2]uint32{uint32(g.W), uint32(g.H)}) // a hash.Hash write never fails
		h.Write(g.Pix)
	}
	key := fmt.Sprintf("%s|pgm:%d:%x", sum.Key(), len(frames), h.Sum(nil))
	return campaign.SummarizeApp(sum, frames, name, key), nil
}
