package bench

import (
	"fmt"
	"io"

	"alewife/internal/apps"
	"alewife/internal/core"
)

func init() {
	register(Experiment{
		ID:       "fig7",
		Title:    "Memory-to-memory copy vs block size (Section 4.4, Figure 7)",
		Run:      runFig7,
		MinNodes: 2,
	})
	register(Experiment{
		ID:       "fig8",
		Title:    "accum: consume remote data immediately (Section 4.4, Figure 8)",
		Run:      runFig8,
		MinNodes: 2,
	})
}

// fig7Sizes are the paper's x-axis points (bytes).
func fig7Sizes(quick bool) []int {
	if quick {
		return []int{256, 4096}
	}
	return []int{64, 128, 256, 512, 1024, 2048, 4096}
}

// fig7Paper holds the bandwidths the text quotes (MB/s):
// size -> {no-prefetch, prefetch, message}.
var fig7Paper = map[int][3]float64{
	256:  {11.7, 7.3, 17.3},
	4096: {16.4, 8.6, 55.4},
}

func runFig7(cfg Config, w io.Writer) {
	t := NewTable("fig7", "bytes",
		"nopf_cycles", "nopf_MBps", "pf_cycles", "pf_MBps", "msg_cycles", "msg_MBps",
		"paper_nopf", "paper_pf", "paper_msg")
	sizes := fig7Sizes(cfg.Quick)
	rows := parMap(cfg, len(sizes), func(si int) [3]apps.MemcpyResult {
		var res [3]apps.MemcpyResult
		for i, kind := range []apps.CopyKind{apps.CopyNoPrefetch, apps.CopyPrefetch, apps.CopyMessage} {
			rt := newRT(cfg, cfg.Nodes, core.ModeHybrid)
			res[i] = apps.Memcpy(rt, 1, sizes[si], kind) // neighbour node
		}
		return res
	})
	for si, bytes := range sizes {
		res := rows[si]
		paper := [3]string{"", "", ""}
		if p, ok := fig7Paper[bytes]; ok {
			for i := range paper {
				paper[i] = fmt.Sprintf("%.1f", p[i])
			}
		}
		t.Add(bytes,
			res[0].Cycles, res[0].MBps(33),
			res[1].Cycles, res[1].MBps(33),
			res[2].Cycles, res[2].MBps(33),
			paper[0], paper[1], paper[2])
	}
	t.Note("paper quotes MB/s at 256 B and 4 KB; shapes: msg fastest beyond ~128 B,")
	t.Note("prefetching loop slower than the plain loop at every size")
	t.Emit(cfg, w)
	fig7Attrib(cfg, w)
}

func runFig8(cfg Config, w io.Writer) {
	t := NewTable("fig8", "bytes", "sm_cycles", "mp_cycles", "mp_minus_copy", "mp_over_sm")
	sizes := fig7Sizes(cfg.Quick)
	type row struct{ sm, mp, xfer uint64 }
	rows := parMap(cfg, len(sizes), func(si int) row {
		bytes := sizes[si]
		words := uint64(bytes / 8)
		sm := apps.AccumSM(newMachine(cfg, cfg.Nodes), 1, words)
		rt := newRT(cfg, cfg.Nodes, core.ModeHybrid)
		mp := apps.AccumMP(rt, 1, words)
		// The paper also discusses MP time minus the bare transfer time
		// (Figure 7's message curve), which rides just below SM.
		rt2 := newRT(cfg, cfg.Nodes, core.ModeHybrid)
		xfer := apps.Memcpy(rt2, 1, bytes, apps.CopyMessage)
		return row{sm: sm.Cycles, mp: mp.Cycles, xfer: xfer.Cycles}
	})
	for si, bytes := range sizes {
		r := rows[si]
		t.Add(bytes, r.sm, r.mp,
			int64(r.mp)-int64(r.xfer),
			float64(r.mp)/float64(r.sm))
	}
	t.Note("paper: MP ~2x slower at small blocks, ~1.3x at large; MP-copy rides just under SM")
	t.Emit(cfg, w)
	fig8Attrib(cfg, w)
}
