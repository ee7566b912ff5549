package o2

// ReportDigest hashes everything a run reports (see reportDigest), for
// the external test package.
var ReportDigest = reportDigest
