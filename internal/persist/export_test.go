package persist

// CheckSplitBytes lets the external tests size journals on either side
// of the point where Load starts checking a file on several goroutines.
const CheckSplitBytes = checkSplitBytes
