// Fixture: the clean tree's only consumer.
#include "core/facade.h"

int main() { return mrca::facade(); }
