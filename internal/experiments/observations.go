package experiments

import (
	"fmt"
	"strings"
)

// Observations re-derives the paper's six numbered observations from this
// reproduction's measurements and reports PASS/DEVIATION for each. The
// bands are the reproduction targets from DESIGN.md §5 — shapes and orders,
// not the authors' absolute numbers.
func Observations() (string, error) {
	var sb strings.Builder
	sb.WriteString("Observations O1–O6 (paper §IV), re-derived from measurements\n\n")
	pass := func(ok bool, name, detail string) {
		verdict := "PASS     "
		if !ok {
			verdict = "DEVIATION"
		}
		fmt.Fprintf(&sb, "%s  %s — %s\n", verdict, name, detail)
	}

	// O1: recall, precision, accuracy exceed 86/88/80 with FNR below 18
	// (we allow the reproduction band of DESIGN.md: recall ≥ 70, precision
	// ≥ 85, accuracy ≥ 75, FNR ≤ 30).
	fig7, _, err := Fig7()
	if err != nil {
		return "", err
	}
	o1 := true
	minRecall, minPrec := 101.0, 101.0
	for _, r := range fig7 {
		if r.Recall < 70 || r.Precision < 85 || r.Accuracy < 75 || r.FNR > 30 {
			o1 = false
		}
		if r.Recall < minRecall {
			minRecall = r.Recall
		}
		if r.Precision < minPrec {
			minPrec = r.Precision
		}
	}
	pass(o1, "O1 Phase-1 efficiency",
		fmt.Sprintf("min recall %.1f%%, min precision %.1f%% across 4 systems (paper: ≥82.3 / ≥86.6)", minRecall, minPrec))

	// O2: inference below ~11 ms across platforms for all chain lengths.
	t6, _, err := Table6()
	if err != nil {
		return "", err
	}
	o2 := true
	worst := 0.0
	for _, r := range t6 {
		if r.Aarohi > worst {
			worst = r.Aarohi
		}
		if r.Aarohi > 11 {
			o2 = false
		}
	}
	pass(o2, "O2 inference time", fmt.Sprintf("worst Aarohi chain check %.3f ms (paper bound: <11 ms)", worst))

	// O3: ≥27.4× over the state of the art at length 302, growing gaps vs
	// the LSTM baselines. The ratio is of each side's fastest repetition: a
	// sub-millisecond Aarohi check whose mean a busy host inflates 3× would
	// otherwise fail the band while the code is unchanged.
	last := t6[len(t6)-1]
	speedupDesh := last.DeshMin / last.AarohiMin
	speedupDeep := last.DeepLogMin / last.AarohiMin
	pass(speedupDesh > 20 && speedupDeep > 100, "O3 speedup",
		fmt.Sprintf("length 302: %.1f× vs Desh, %.1f× vs DeepLog (paper: 27.4× vs Desh)", speedupDesh, speedupDeep))

	// O4: FC-related phrase fraction below 47%.
	fig12, _, err := Fig12()
	if err != nil {
		return "", err
	}
	o4 := true
	maxFrac := 0.0
	for _, r := range fig12 {
		if r.Fraction > maxFrac {
			maxFrac = r.Fraction
		}
		if r.Fraction >= 47 {
			o4 = false
		}
	}
	pass(o4, "O4 tokenized fraction", fmt.Sprintf("max %.2f%% of phrases FC-related (paper: 29.8–46.7%%)", maxFrac))

	// O5/O6: lead times — >3 min achievable, average above ~2.3 min, with
	// per-system prediction times far below the lead.
	fig14, _, err := Fig14()
	if err != nil {
		return "", err
	}
	o56 := true
	minLead, maxLead := 1e9, 0.0
	for _, r := range fig14 {
		if r.Mean < maxLead {
			_ = r
		}
		if r.Mean < minLead {
			minLead = r.Mean
		}
		if r.Mean > maxLead {
			maxLead = r.Mean
		}
		if r.Mean < 2.0 {
			o56 = false
		}
	}
	pass(o56, "O5/O6 lead times",
		fmt.Sprintf("per-system average lead %.2f–%.2f min (paper: ≈2.74 min average, >3 min achievable)", minLead, maxLead))

	fig15, _, err := Fig15()
	if err != nil {
		return "", err
	}
	o6 := true
	worstPred := 0.0
	for _, r := range fig15 {
		if r.Mean > worstPred {
			worstPred = r.Mean
		}
		if r.Mean > 16 {
			o6 = false
		}
	}
	pass(o6, "O6 prediction vs lead", fmt.Sprintf("worst per-node stream check %.3f ms ≪ minutes of lead (paper: <16 ms)", worstPred))

	return sb.String(), nil
}
