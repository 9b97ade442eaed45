package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfusionAccuracyAndCounts(t *testing.T) {
	c := NewConfusion(3)
	c.AddBatch([]int{0, 0, 1, 2, 2}, []int{0, 1, 1, 2, 0})
	if c.Total() != 5 {
		t.Fatalf("Total = %d, want 5", c.Total())
	}
	if got := c.Accuracy(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("Accuracy = %v, want 0.6", got)
	}
}

func TestPrecisionFDR(t *testing.T) {
	c := NewConfusion(2)
	// class 0: predicted 3 times, correct twice → precision 2/3, FDR 1/3.
	c.AddBatch([]int{0, 0, 1, 1, 1}, []int{0, 0, 0, 1, 1})
	p, ok := c.Precision(0)
	if !ok || math.Abs(p-2.0/3.0) > 1e-12 {
		t.Fatalf("Precision(0) = %v/%v, want 2/3", p, ok)
	}
	if got := c.FDR(0); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("FDR(0) = %v, want 1/3", got)
	}
}

func TestPrecisionUndefinedWhenNeverPredicted(t *testing.T) {
	c := NewConfusion(3)
	c.Add(0, 1)
	if _, ok := c.Precision(2); ok {
		t.Fatal("precision defined for never-predicted class")
	}
	if c.FDR(2) != 1 {
		t.Fatalf("FDR of never-predicted class = %v, want 1", c.FDR(2))
	}
}

func TestRankByFDRHardestFirst(t *testing.T) {
	c := NewConfusion(3)
	// class 0 perfectly predicted; class 1 often wrong; class 2 mediocre.
	c.AddBatch(
		[]int{0, 0, 0, 1, 1, 1, 2, 2, 2, 0},
		[]int{0, 0, 0, 2, 2, 1, 2, 2, 1, 0},
	)
	rank := c.RankByFDR()
	if rank[0] != 1 {
		t.Fatalf("hardest class = %d, want 1 (rank %v)", rank[0], rank)
	}
	if rank[len(rank)-1] != 0 {
		t.Fatalf("easiest class = %d, want 0 (rank %v)", rank[len(rank)-1], rank)
	}
}

func TestRankByFDRDeterministicOnTies(t *testing.T) {
	c := NewConfusion(4) // all FDR equal (1: never predicted)
	r1 := c.RankByFDR()
	r2 := c.RankByFDR()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("tie-broken rank not deterministic")
		}
	}
}

func TestClassifyErrorsProportions(t *testing.T) {
	hard := map[int]bool{2: true, 3: true}
	c := NewConfusion(4)
	c.Add(0, 2) // easy→hard  (I)
	c.Add(2, 0) // hard→easy  (II)
	c.Add(0, 1) // easy→easy  (III)
	c.Add(2, 3) // hard→hard  (IV)
	c.Add(3, 2) // hard→hard  (IV)
	c.Add(1, 1) // correct, ignored
	et := c.ClassifyErrors(hard)
	if et.Errors != 5 {
		t.Fatalf("Errors = %d, want 5", et.Errors)
	}
	if math.Abs(et.EasyAsHard-0.2) > 1e-12 || math.Abs(et.HardAsEasy-0.2) > 1e-12 ||
		math.Abs(et.EasyAsEasy-0.2) > 1e-12 || math.Abs(et.HardAsHard-0.4) > 1e-12 {
		t.Fatalf("proportions %+v wrong", et)
	}
}

func TestClassifyErrorsProportionsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + rng.Intn(5)
		c := NewConfusion(k)
		hard := map[int]bool{}
		for i := 0; i < k/2; i++ {
			hard[rng.Intn(k)] = true
		}
		for n := 0; n < 50; n++ {
			c.Add(rng.Intn(k), rng.Intn(k))
		}
		et := c.ClassifyErrors(hard)
		if et.Errors == 0 {
			return true
		}
		sum := et.EasyAsHard + et.HardAsEasy + et.EasyAsEasy + et.HardAsHard
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEntropyStatsAndThresholdRange(t *testing.T) {
	var s EntropyStats
	s.AddPrediction(0.1, true)
	s.AddPrediction(0.3, true)
	s.AddPrediction(1.5, false)
	s.AddPrediction(2.5, false)
	s.Finalize()
	if math.Abs(s.MeanCorrect-0.2) > 1e-12 || math.Abs(s.MeanWrong-2.0) > 1e-12 {
		t.Fatalf("means %+v wrong", s)
	}
	lo, hi, ok := s.ThresholdRange()
	if !ok || lo != 0.2 || hi != 2.0 {
		t.Fatalf("ThresholdRange = (%v,%v,%v), want (0.2,2.0,true)", lo, hi, ok)
	}
}

func TestThresholdRangeDegenerate(t *testing.T) {
	var s EntropyStats
	s.AddPrediction(0.5, true)
	s.Finalize()
	if _, _, ok := s.ThresholdRange(); ok {
		t.Fatal("degenerate stats produced a valid range")
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("the mean of no values should be 0")
	}
}

func TestConfusionPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Add should panic")
		}
	}()
	NewConfusion(2).Add(0, 5)
}
