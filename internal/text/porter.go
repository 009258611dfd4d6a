package text

// Porter stemming algorithm (M.F. Porter, "An algorithm for suffix
// stripping", Program 14(3), 1980), the stemmer the paper uses via
// [Fra92]. This is a from-scratch implementation of the original
// algorithm (not Porter2), operating on lower-case ASCII words.
//
// The implementation follows the paper's step structure (1a, 1b, 1c,
// 2, 3, 4, 5a, 5b). The measure m of a stem is the number of VC
// (vowel-consonant) sequences in its [C](VC)^m[V] form.

// Stem returns the Porter stem of word. Words shorter than 3 letters
// are returned unchanged (they cannot productively be stemmed).
// Non-ASCII or upper-case input should be normalized by the caller
// (Tokenize already lower-cases).
func Stem(word string) string {
	if len(word) < 3 {
		return word
	}
	s := &porterState{b: []byte(word)}
	s.step1a()
	s.step1b()
	s.step1c()
	s.step2()
	s.step3()
	s.step4()
	s.step5a()
	s.step5b()
	return string(s.b)
}

type porterState struct {
	b []byte // current word; always the full word being stemmed
}

// isConsonant reports whether b[i] is a consonant per Porter's
// definition: a letter other than a,e,i,o,u, and other than y when
// preceded by a consonant.
func (s *porterState) isConsonant(i int) bool {
	switch s.b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !s.isConsonant(i - 1)
	default:
		return true
	}
}

// measure computes m for the prefix b[:end] (the stem left after
// removing a candidate suffix).
func (s *porterState) measure(end int) int {
	m := 0
	i := 0
	// skip initial consonants
	for i < end && s.isConsonant(i) {
		i++
	}
	for {
		// skip vowels
		for i < end && !s.isConsonant(i) {
			i++
		}
		if i >= end {
			return m
		}
		// skip consonants
		for i < end && s.isConsonant(i) {
			i++
		}
		m++
		if i >= end {
			return m
		}
	}
}

// hasVowel reports whether the stem b[:end] contains a vowel.
func (s *porterState) hasVowel(end int) bool {
	for i := 0; i < end; i++ {
		if !s.isConsonant(i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports whether b[:end] ends with a double
// consonant (e.g. -tt, -ss).
func (s *porterState) endsDoubleConsonant(end int) bool {
	if end < 2 {
		return false
	}
	if s.b[end-1] != s.b[end-2] {
		return false
	}
	return s.isConsonant(end - 1)
}

// endsCVC reports whether b[:end] ends consonant-vowel-consonant where
// the final consonant is not w, x or y (Porter's *o condition).
func (s *porterState) endsCVC(end int) bool {
	if end < 3 {
		return false
	}
	if !s.isConsonant(end-3) || s.isConsonant(end-2) || !s.isConsonant(end-1) {
		return false
	}
	switch s.b[end-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// hasSuffix reports whether the current word ends with suf.
func (s *porterState) hasSuffix(suf string) bool {
	n := len(s.b)
	if len(suf) > n {
		return false
	}
	return string(s.b[n-len(suf):]) == suf
}

// stemEnd returns the length of the stem if suffix suf were removed.
func (s *porterState) stemEnd(suf string) int {
	return len(s.b) - len(suf)
}

// replaceSuffix unconditionally rewrites suffix suf to rep.
func (s *porterState) replaceSuffix(suf, rep string) {
	s.b = append(s.b[:s.stemEnd(suf)], rep...)
}

// replaceIfM replaces suf with rep if the stem measure (excluding suf)
// exceeds the threshold. Returns true if suf matched (whether or not
// the replacement fired), which ends the containing rule list.
func (s *porterState) replaceIfM(suf, rep string, minM int) bool {
	if !s.hasSuffix(suf) {
		return false
	}
	if s.measure(s.stemEnd(suf)) > minM {
		s.replaceSuffix(suf, rep)
	}
	return true
}

// Step 1a: plurals. SSES->SS, IES->I, SS->SS, S->"".
func (s *porterState) step1a() {
	switch {
	case s.hasSuffix("sses"):
		s.replaceSuffix("sses", "ss")
	case s.hasSuffix("ies"):
		s.replaceSuffix("ies", "i")
	case s.hasSuffix("ss"):
		// no change
	case s.hasSuffix("s"):
		s.replaceSuffix("s", "")
	}
}

// Step 1b: past tenses and -ing. (m>0) EED->EE; (*v*) ED->""; (*v*)
// ING->"". If the 2nd or 3rd rule fired, tidy up: AT->ATE, BL->BLE,
// IZ->IZE, double-consonant trimming, and (m=1 and *o) -> E.
func (s *porterState) step1b() {
	if s.hasSuffix("eed") {
		if s.measure(s.stemEnd("eed")) > 0 {
			s.replaceSuffix("eed", "ee")
		}
		return
	}
	fired := false
	if s.hasSuffix("ed") && s.hasVowel(s.stemEnd("ed")) {
		s.replaceSuffix("ed", "")
		fired = true
	} else if s.hasSuffix("ing") && s.hasVowel(s.stemEnd("ing")) {
		s.replaceSuffix("ing", "")
		fired = true
	}
	if !fired {
		return
	}
	switch {
	case s.hasSuffix("at"):
		s.replaceSuffix("at", "ate")
	case s.hasSuffix("bl"):
		s.replaceSuffix("bl", "ble")
	case s.hasSuffix("iz"):
		s.replaceSuffix("iz", "ize")
	case s.endsDoubleConsonant(len(s.b)):
		last := s.b[len(s.b)-1]
		if last != 'l' && last != 's' && last != 'z' {
			s.b = s.b[:len(s.b)-1]
		}
	case s.measure(len(s.b)) == 1 && s.endsCVC(len(s.b)):
		s.b = append(s.b, 'e')
	}
}

// Step 1c: (*v*) Y -> I.
func (s *porterState) step1c() {
	if s.hasSuffix("y") && s.hasVowel(s.stemEnd("y")) {
		s.b[len(s.b)-1] = 'i'
	}
}

// step2 maps double suffixes to single ones when m>0 for the stem.
func (s *porterState) step2() {
	// Ordered longest-match within each final-letter bucket, per the
	// published rule list.
	rules := []struct{ suf, rep string }{
		{"ational", "ate"},
		{"tional", "tion"},
		{"enci", "ence"},
		{"anci", "ance"},
		{"izer", "ize"},
		{"abli", "able"}, // Porter's original; some variants use "bli"->"ble"
		{"alli", "al"},
		{"entli", "ent"},
		{"eli", "e"},
		{"ousli", "ous"},
		{"ization", "ize"},
		{"ation", "ate"},
		{"ator", "ate"},
		{"alism", "al"},
		{"iveness", "ive"},
		{"fulness", "ful"},
		{"ousness", "ous"},
		{"aliti", "al"},
		{"iviti", "ive"},
		{"biliti", "ble"},
	}
	for _, r := range rules {
		if s.replaceIfM(r.suf, r.rep, 0) {
			return
		}
	}
}

// step3 strips -icate, -ative, -alize etc. when m>0.
func (s *porterState) step3() {
	rules := []struct{ suf, rep string }{
		{"icate", "ic"},
		{"ative", ""},
		{"alize", "al"},
		{"iciti", "ic"},
		{"ical", "ic"},
		{"ful", ""},
		{"ness", ""},
	}
	for _, r := range rules {
		if s.replaceIfM(r.suf, r.rep, 0) {
			return
		}
	}
}

// step4 removes residual suffixes when m>1.
func (s *porterState) step4() {
	rules := []string{
		"al", "ance", "ence", "er", "ic", "able", "ible", "ant",
		"ement", "ment", "ent", "ou", "ism", "ate", "iti", "ous",
		"ive", "ize",
	}
	// The rules slice is ordered so that whenever one suffix is a
	// suffix of another ("ement" > "ment" > "ent"), the longer comes
	// first, preserving Porter's longest-match discipline.
	for _, suf := range rules {
		if s.hasSuffix(suf) {
			if s.measure(s.stemEnd(suf)) > 1 {
				s.replaceSuffix(suf, "")
			}
			return
		}
	}
	// "ion" is special: it is only removed when the stem ends in s or t.
	if s.hasSuffix("ion") {
		end := s.stemEnd("ion")
		if end > 0 && (s.b[end-1] == 's' || s.b[end-1] == 't') && s.measure(end) > 1 {
			s.replaceSuffix("ion", "")
		}
	}
}

// step5a: (m>1) E -> ""; (m=1 and not *o) E -> "".
func (s *porterState) step5a() {
	if !s.hasSuffix("e") {
		return
	}
	end := s.stemEnd("e")
	m := s.measure(end)
	if m > 1 || (m == 1 && !s.endsCVC(end)) {
		s.b = s.b[:end]
	}
}

// step5b: (m>1 and *d and *L) single letter (-ll -> -l).
func (s *porterState) step5b() {
	n := len(s.b)
	if n > 1 && s.b[n-1] == 'l' && s.endsDoubleConsonant(n) && s.measure(n) > 1 {
		s.b = s.b[:n-1]
	}
}
