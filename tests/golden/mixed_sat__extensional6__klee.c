/* mixed_sat: extensional version 6 (if, bitwise, grouping=all) */
#include <assert.h>
#include <stdlib.h>
#include <klee/klee.h>

#define dist(a,b) abs((a)-(b))

int main(void) {
    int q0, q1, q2, q3;
    /* declare variables symbolic */
    klee_make_symbolic(&q0,sizeof(q0),"q0");
    klee_make_symbolic(&q1,sizeof(q1),"q1");
    klee_make_symbolic(&q2,sizeof(q2),"q2");
    klee_make_symbolic(&q3,sizeof(q3),"q3");
    /* enforce variable domains */
    klee_assume(q0>=0 && q0<=3);
    klee_assume(q1>=0 && q1<=3);
    klee_assume(q2>=0 && q2<=3);
    klee_assume(q3>=0 && q3<=3);
    /* constraints */
    if (!((q0==0 & q1==1) | (q0==1 & q1==0) | (q0==2 & q1==3) | (q0==3 & q1==2)) &
        !((q2==0 & q3==1) | (q2==1 & q3==0) | (q2==2 & q3==3) | (q2==3 & q3==2)) &
        ((q1==0 & q3==3) | (q1==1 & q3==2) | (q1==2 & q3==3) | (q1==3 & q3==1) | (q1==3 & q3==3)) &
        q0<q3 &
        dist(q0,q2)!=2 &
        dist(q1,q2)!=2 &
        q0!=q1 &
        q0!=q2 &
        q1!=q2); else exit(0);
    /* CSP is satisfiable */
    assert(0);
    return 0;
}
