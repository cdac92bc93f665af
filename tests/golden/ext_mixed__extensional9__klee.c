/* ext_mixed: extensional version 9 (assume, logical, grouping=all) */
#include <assert.h>
#include <stdlib.h>
#include <klee/klee.h>

int main(void) {
    int m0, m1, m2, m3;
    /* declare variables symbolic */
    klee_make_symbolic(&m0,sizeof(m0),"m0");
    klee_make_symbolic(&m1,sizeof(m1),"m1");
    klee_make_symbolic(&m2,sizeof(m2),"m2");
    klee_make_symbolic(&m3,sizeof(m3),"m3");
    /* enforce variable domains */
    klee_assume(m0>=0 && m0<=1);
    klee_assume(m1>=0 && m1<=1);
    klee_assume(m2>=0 && m2<=1);
    klee_assume(m3>=0 && m3<=1);
    /* constraints */
    klee_assume(!((m0==0 && m1==0)) && ((m2==0 && m3==1) || (m2==1 && m3==0) || (m2==1 && m3==1)));
    /* CSP is satisfiable */
    assert(0);
    return 0;
}
