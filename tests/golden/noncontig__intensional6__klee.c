/* noncontig: intensional version 6 (assume, nop, grouping=no) */
#include <assert.h>
#include <stdlib.h>
#include <klee/klee.h>

int main(void) {
    int n0;
    /* declare variables symbolic */
    klee_make_symbolic(&n0,sizeof(n0),"n0");
    /* enforce variable domains */
    klee_assume(n0==1 || n0==3 || n0==5 || n0==6);
    /* constraints */
    klee_assume(n0<=5);
    /* CSP is satisfiable */
    assert(0);
    return 0;
}
