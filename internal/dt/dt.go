// Package dt implements the supervised-learning baseline of DiTomaso et
// al. (MICRO 2016) as the paper describes it: a regression decision tree
// (CART, variance-reduction splits) trained offline on labeled examples
// mapping runtime NoC features to observed link timing-error rates. At
// runtime the tree predicts the error rate and a static threshold policy
// maps the prediction to one of the four fault-tolerant operation modes.
// Unlike the RL controller, the tree is not updated during the testing
// phase.
package dt

import (
	"fmt"
	"math"
	"sort"

	"rlnoc/internal/snap"
)

// Sample is one labeled training example: a feature vector and the
// observed error rate.
type Sample struct {
	X []float64
	Y float64
}

// Tree is a trained CART regression tree.
type Tree struct {
	root       *node
	features   int
	nodes      int
	depthLimit int
}

type node struct {
	leaf      bool
	value     float64
	feature   int
	threshold float64
	left      *node
	right     *node
}

// Options tunes training.
type Options struct {
	MaxDepth    int // maximum tree depth (root = depth 0)
	MinLeafSize int // minimum samples per leaf
}

// DefaultOptions bounds the tree to something a small hardware evaluator
// could hold.
func DefaultOptions() Options { return Options{MaxDepth: 6, MinLeafSize: 8} }

// Train fits a regression tree on the samples. All samples must share the
// same feature dimensionality.
func Train(samples []Sample, opt Options) (*Tree, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("dt: no training samples")
	}
	dim := len(samples[0].X)
	if dim == 0 {
		return nil, fmt.Errorf("dt: empty feature vectors")
	}
	for i, s := range samples {
		if len(s.X) != dim {
			return nil, fmt.Errorf("dt: sample %d has %d features, want %d", i, len(s.X), dim)
		}
	}
	if opt.MaxDepth < 1 {
		opt.MaxDepth = 1
	}
	if opt.MinLeafSize < 1 {
		opt.MinLeafSize = 1
	}
	t := &Tree{features: dim, depthLimit: opt.MaxDepth}
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(samples, idx, 0, opt)
	return t, nil
}

func mean(samples []Sample, idx []int) float64 {
	var sum float64
	for _, i := range idx {
		sum += samples[i].Y
	}
	return sum / float64(len(idx))
}

// sse returns the sum of squared errors around the subset mean.
func sse(samples []Sample, idx []int) float64 {
	m := mean(samples, idx)
	var s float64
	for _, i := range idx {
		d := samples[i].Y - m
		s += d * d
	}
	return s
}

func (t *Tree) build(samples []Sample, idx []int, depth int, opt Options) *node {
	t.nodes++
	m := mean(samples, idx)
	if depth >= opt.MaxDepth || len(idx) < 2*opt.MinLeafSize || sse(samples, idx) < 1e-18 {
		return &node{leaf: true, value: m}
	}
	bestFeature, bestThreshold, bestScore := -1, 0.0, math.Inf(1)
	order := make([]int, len(idx))
	for f := 0; f < t.features; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return samples[order[a]].X[f] < samples[order[b]].X[f] })
		// Prefix sums over the sorted order let us score every split in
		// O(n) per feature.
		var sumL, sumSqL float64
		var sumR, sumSqR float64
		for _, i := range order {
			sumR += samples[i].Y
			sumSqR += samples[i].Y * samples[i].Y
		}
		n := len(order)
		for k := 0; k < n-1; k++ {
			y := samples[order[k]].Y
			sumL += y
			sumSqL += y * y
			sumR -= y
			sumSqR -= y * y
			// Can't split between equal feature values.
			if samples[order[k]].X[f] == samples[order[k+1]].X[f] {
				continue
			}
			nl, nr := k+1, n-k-1
			if nl < opt.MinLeafSize || nr < opt.MinLeafSize {
				continue
			}
			scoreL := sumSqL - sumL*sumL/float64(nl)
			scoreR := sumSqR - sumR*sumR/float64(nr)
			if score := scoreL + scoreR; score < bestScore {
				bestScore = score
				bestFeature = f
				bestThreshold = (samples[order[k]].X[f] + samples[order[k+1]].X[f]) / 2
			}
		}
	}
	if bestFeature < 0 {
		return &node{leaf: true, value: m}
	}
	var left, right []int
	for _, i := range idx {
		if samples[i].X[bestFeature] <= bestThreshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &node{leaf: true, value: m}
	}
	return &node{
		feature:   bestFeature,
		threshold: bestThreshold,
		left:      t.build(samples, left, depth+1, opt),
		right:     t.build(samples, right, depth+1, opt),
	}
}

// Predict returns the tree's error-rate estimate for a feature vector.
func (t *Tree) Predict(x []float64) float64 {
	n := t.root
	for !n.leaf {
		if n.feature < len(x) && x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Nodes returns the number of nodes in the tree (a proxy for hardware
// cost).
func (t *Tree) Nodes() int { return t.nodes }

// Depth returns the tree's maximum depth.
func (t *Tree) Depth() int { return depthOf(t.root) }

func depthOf(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// maxSnapDepth bounds the depth UnsnapTree accepts, so a corrupt stream
// cannot drive its recursion arbitrarily deep.
const maxSnapDepth = 64

// Snap writes the tree for a checkpoint: its dimensions, then every node
// in pre-order — a leaf as its value, an internal node as its split
// followed by its left and right subtrees.
func (t *Tree) Snap(w *snap.Writer) {
	w.Int(t.features)
	w.Int(t.depthLimit)
	var walk func(n *node)
	walk = func(n *node) {
		w.Bool(n.leaf)
		if n.leaf {
			w.F64(n.value)
			return
		}
		w.Int(n.feature)
		w.F64(n.threshold)
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
}

// UnsnapTree reads a tree written by Snap. A malformed tree fails r.
func UnsnapTree(r *snap.Reader) *Tree {
	t := &Tree{features: r.Int(), depthLimit: r.Int()}
	if r.Err() != nil {
		return nil
	}
	if t.features < 1 || t.depthLimit < 1 || t.depthLimit > maxSnapDepth {
		r.Fail(fmt.Errorf("dt: snapshot tree has %d features, depth limit %d", t.features, t.depthLimit))
		return nil
	}
	var read func(depth int) *node
	read = func(depth int) *node {
		if r.Err() != nil {
			return nil
		}
		t.nodes++
		if r.Bool() {
			return &node{leaf: true, value: r.F64()}
		}
		n := &node{feature: r.Int(), threshold: r.F64()}
		if depth >= t.depthLimit || n.feature < 0 || n.feature >= t.features {
			r.Fail(fmt.Errorf("dt: snapshot tree split at depth %d on feature %d is out of range", depth, n.feature))
			return nil
		}
		n.left = read(depth + 1)
		n.right = read(depth + 1)
		return n
	}
	t.root = read(0)
	if r.Err() != nil {
		return nil
	}
	return t
}

// Policy maps a predicted error rate to one of the four operation modes
// via fixed thresholds, per the DT baseline ("operation modes are
// selected according to DT predicted error rate").
type Policy struct {
	Tree *Tree
	// Thresholds[0..2] split the predicted error rate into modes 0..3.
	Thresholds [3]float64
}

// DefaultThresholds places the mode boundaries at the analytic cost
// crossovers of the four modes (internal/analytic, latency x energy at
// zero load): ECC becomes worthwhile around 1% per-hop error rate and
// timing relaxation around 17%; pre-retransmission gets the upper-middle
// band, where its NACK-round-trip savings matter under load.
func DefaultThresholds() [3]float64 { return [3]float64{0.01, 0.08, 0.17} }

// Mode returns the operation mode for a feature vector.
func (p *Policy) Mode(x []float64) int {
	rate := p.Tree.Predict(x)
	switch {
	case rate < p.Thresholds[0]:
		return 0
	case rate < p.Thresholds[1]:
		return 1
	case rate < p.Thresholds[2]:
		return 2
	default:
		return 3
	}
}
