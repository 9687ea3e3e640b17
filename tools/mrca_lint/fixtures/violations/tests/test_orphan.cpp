// Fixture: a test is not a consumer; core/orphan.h stays flagged.
#include "core/orphan.h"

int main() { return mrca::orphan(); }
