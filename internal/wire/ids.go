package wire

import (
	"bytes"
	"encoding/json"
	"slices"
)

// IDs is a result id array on the wire. It encodes as the plain []int64 it
// is — reflection already writes one with strconv.AppendInt, and a
// MarshalJSON would add a validating pass over every byte — and decodes
// itself: a response carries about a thousand ids, and handing each to
// encoding/json's reflective literal store was the largest term of the
// whole codec.
type IDs []int64

// maxFastDigits is the longest digit run the hand decoder takes: 18 digits
// cannot overflow an int64, a 19th can.
const maxFastDigits = 18

// UnmarshalJSON implements json.Unmarshaler. The canonical form — '[',
// integers of at most 18 digits without leading zeros separated by single
// commas, ']', no whitespace — is decoded by a digit loop; anything else
// (whitespace, null, fractions and exponents, 19 digits, nested values,
// malformed input) is left to encoding/json, so what is accepted, what is
// refused and every value are its.
func (ids *IDs) UnmarshalJSON(data []byte) error {
	if out, ok := appendIDs(nil, data); ok {
		*ids = out
		return nil
	}
	return json.Unmarshal(data, (*[]int64)(ids))
}

// appendIDs decodes the canonical form into dst[:0], or reports that data
// is not in it. A canonical [] is an empty slice, never nil.
func appendIDs(dst IDs, data []byte) (IDs, bool) {
	n := len(data)
	if n < 2 || data[0] != '[' || data[n-1] != ']' {
		return nil, false
	}
	if n == 2 {
		if dst == nil {
			return IDs{}, true // encoding/json decodes [] to an empty slice, not nil
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
