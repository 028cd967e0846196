package wire

import (
	"bytes"
	"slices"
)

// maxFastDigits is the longest digit run the hand decoder takes: 18 digits
// cannot overflow an int64, a 19th can.
const maxFastDigits = 18

// appendIDs decodes a result id array in the canonical form — '[', integers
// of at most 18 digits without leading zeros separated by single commas,
// ']', no whitespace — into dst[:0], or reports that data is not in it,
// which leaves the whole message to encoding/json. A canonical [] is an
// empty slice, never nil.
func appendIDs(dst []int64, data []byte) ([]int64, bool) {
	n := len(data)
	if n < 2 || data[0] != '[' || data[n-1] != ']' {
		return nil, false
	}
	if n == 2 {
		if dst == nil {
			return []int64{}, true // encoding/json decodes [] to an empty slice, not nil
		}
		return dst[:0], true
	}
	out := slices.Grow(dst[:0], bytes.Count(data, []byte{','})+1)
	for i := 1; ; i++ { // data[i] starts an integer
		neg := data[i] == '-'
		if neg {
			i++
		}
		start := i
		var v int64
		for ; '0' <= data[i] && data[i] <= '9'; i++ { // data[n-1] == ']' ends the run
			v = v*10 + int64(data[i]-'0')
		}
		if digits := i - start; digits == 0 || digits > maxFastDigits || (digits > 1 && data[start] == '0') {
			return nil, false
		}
		if neg {
			v = -v
		}
		out = append(out, v)
		if i == n-1 {
			return out, true
		}
		if data[i] != ',' {
			return nil, false
		}
	}
}
