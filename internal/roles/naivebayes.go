package roles

import (
	"fmt"
	"math"

	"donorsense/internal/idindex"
)

// Sample is one labelled training example.
type Sample struct {
	X Features
	Y int // class label, 0-based
}

// NaiveBayes is a Gaussian naive Bayes classifier: each feature is
// modelled per class as an independent normal distribution.
type NaiveBayes struct {
	classes int
	prior   []float64              // log prior per class
	mean    [][NumFeatures]float64 // per class
	varn    [][NumFeatures]float64 // per class, floored
}

// varFloor prevents degenerate zero-variance features (e.g. a class whose
// members all share one attention value) from producing infinities.
const varFloor = 1e-6

// Train fits the classifier. classes is the number of labels; every label
// in samples must be in [0, classes). Classes with no samples keep a tiny
// prior and uninformative densities.
func Train(samples []Sample, classes int) (*NaiveBayes, error) {
	if classes < 2 {
		return nil, fmt.Errorf("roles: need at least 2 classes, got %d", classes)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("roles: no training samples")
	}
	nb := &NaiveBayes{
		classes: classes,
		prior:   make([]float64, classes),
		mean:    make([][NumFeatures]float64, classes),
		varn:    make([][NumFeatures]float64, classes),
	}
	counts := make([]int, classes)
	for _, s := range samples {
		if s.Y < 0 || s.Y >= classes {
			return nil, fmt.Errorf("roles: label %d out of range [0,%d)", s.Y, classes)
		}
		counts[s.Y]++
		for j, v := range s.X {
			nb.mean[s.Y][j] += v
		}
	}
	for c := 0; c < classes; c++ {
		// Laplace-smoothed prior so empty classes stay representable.
		nb.prior[c] = math.Log(float64(counts[c]+1) / float64(len(samples)+classes))
		if counts[c] == 0 {
			for j := range nb.varn[c] {
				nb.varn[c][j] = 1
			}
			continue
		}
		for j := range nb.mean[c] {
			nb.mean[c][j] /= float64(counts[c])
		}
	}
	for _, s := range samples {
		for j, v := range s.X {
			d := v - nb.mean[s.Y][j]
			nb.varn[s.Y][j] += d * d
		}
	}
	for c := 0; c < classes; c++ {
		if counts[c] == 0 {
			continue
		}
		for j := range nb.varn[c] {
			nb.varn[c][j] = nb.varn[c][j]/float64(counts[c]) + varFloor
		}
	}
	return nb, nil
}

// LogPosteriors returns the unnormalized log posterior per class.
func (nb *NaiveBayes) LogPosteriors(x Features) []float64 {
	out := make([]float64, nb.classes)
	for c := 0; c < nb.classes; c++ {
		lp := nb.prior[c]
		for j, v := range x {
			d := v - nb.mean[c][j]
			lp += -0.5*math.Log(2*math.Pi*nb.varn[c][j]) - d*d/(2*nb.varn[c][j])
		}
		out[c] = lp
	}
	return out
}

// Predict returns the most probable class for the feature vector.
func (nb *NaiveBayes) Predict(x Features) int {
	lps := nb.LogPosteriors(x)
	best, bi := lps[0], 0
	for c := 1; c < len(lps); c++ {
		if lps[c] > best {
			best, bi = lps[c], c
		}
	}
	return bi
}

// Evaluation summarizes classifier performance on a labelled set.
type Evaluation struct {
	Accuracy  float64
	Confusion [][]int // [true][predicted]
	Recall    []float64
	Precision []float64
	N         int
}

// Evaluate runs the classifier over labelled samples and tabulates
// accuracy, per-class recall/precision, and the confusion matrix.
func Evaluate(nb *NaiveBayes, samples []Sample) (Evaluation, error) {
	if len(samples) == 0 {
		return Evaluation{}, fmt.Errorf("roles: no evaluation samples")
	}
	ev := Evaluation{
		Confusion: make([][]int, nb.classes),
		Recall:    make([]float64, nb.classes),
		Precision: make([]float64, nb.classes),
		N:         len(samples),
	}
	for i := range ev.Confusion {
		ev.Confusion[i] = make([]int, nb.classes)
	}
	correct := 0
	for _, s := range samples {
		if s.Y < 0 || s.Y >= nb.classes {
			return Evaluation{}, fmt.Errorf("roles: label %d out of range", s.Y)
		}
		p := nb.Predict(s.X)
		ev.Confusion[s.Y][p]++
		if p == s.Y {
			correct++
		}
	}
	ev.Accuracy = float64(correct) / float64(len(samples))
	for c := 0; c < nb.classes; c++ {
		var rowSum, colSum int
		for j := 0; j < nb.classes; j++ {
			rowSum += ev.Confusion[c][j]
			colSum += ev.Confusion[j][c]
		}
		if rowSum > 0 {
			ev.Recall[c] = float64(ev.Confusion[c][c]) / float64(rowSum)
		}
		if colSum > 0 {
			ev.Precision[c] = float64(ev.Confusion[c][c]) / float64(colSum)
		}
	}
	return ev, nil
}

// SplitTrainTest partitions samples deterministically (by a hash of the
// index) into train and test sets with roughly the given train fraction.
func SplitTrainTest(samples []Sample, trainFrac float64) (train, test []Sample) {
	for i, s := range samples {
		h := idindex.Splitmix64(uint64(i) * 0x9e3779b97f4a7c15)
		if float64(h%1000)/1000 < trainFrac {
			train = append(train, s)
		} else {
			test = append(test, s)
		}
	}
	return train, test
}
