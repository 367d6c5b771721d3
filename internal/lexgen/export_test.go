package lexgen

// TableIIITemplates exposes the paper's Table III inventory to the external
// fuzz tests, which also need the loggen dialects (loggen imports lexgen).
var TableIIITemplates = tableIIITemplates
