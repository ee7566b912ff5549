package race

import "o2/internal/ir"

// RaceLess is the order Detect reports races in, stated over Race
// values: by field, then the lower source position, then the higher one.
// Detect sorts by packed sig ranks instead; tests check the two agree.
var RaceLess = raceLess

type raceSig struct {
	field string
	aPos  ir.Pos
	bPos  ir.Pos
}

// sigOf dedups races by location field and the unordered source-position
// pair, so one source-level race is reported once regardless of how many
// abstract objects or origin pairs exhibit it.
func sigOf(r *Race) raceSig {
	field := r.Key.Field
	if r.Key.Static != "" {
		field = r.Key.Static
	}
	a, b := r.A.Pos, r.B.Pos
	if posLess(b, a) {
		a, b = b, a
	}
	return raceSig{field, a, b}
}

func posLess(a, b ir.Pos) bool {
	if a.File != b.File {
		return a.File < b.File
	}
	return a.Line < b.Line
}

func raceLess(a, b *Race) bool {
	sa, sb := sigOf(a), sigOf(b)
	if sa.field != sb.field {
		return sa.field < sb.field
	}
	if sa.aPos != sb.aPos {
		return posLess(sa.aPos, sb.aPos)
	}
	return posLess(sa.bPos, sb.bPos)
}
